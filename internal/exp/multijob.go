package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/topo"
)

// MultiJob extends the paper's single-job result to the utility-cluster
// setting it declares out of scope: several jobs run Shift collectives
// simultaneously on the global D-Mod-K tables. Granule-aligned
// allocations stay contention free jointly; a leaf-sharing allocation
// contends even though each job is clean in isolation.
func MultiJob(cluster topo.PGFT) (*Table, error) {
	tp, err := topo.Build(cluster)
	if err != nil {
		return nil, err
	}
	rt, err := route.Compile(route.DModK(tp))
	if err != nil {
		return nil, err
	}
	alloc, err := sched.New(tp)
	if err != nil {
		return nil, err
	}
	g := alloc.Granule()
	n := tp.NumHosts()

	t := &Table{
		Title:  fmt.Sprintf("Multi-job: concurrent Shift collectives, %d nodes (granule %d)", n, g),
		Header: []string{"scenario", "jobs", "aligned", "combined max HSD"},
	}

	// Scenario 1: machine split into granule-aligned halves.
	half := n / 2
	half -= half % g
	ja, err := alloc.Alloc(half)
	if err != nil {
		return nil, err
	}
	jb, err := alloc.Alloc(half)
	if err != nil {
		return nil, err
	}
	worst, err := jointWorstHSD(rt, [][]int{ja.Hosts, jb.Hosts})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"aligned halves", "2", fmt.Sprint(ja.ContentionFree && jb.ContentionFree), fmt.Sprint(worst)})
	if err := alloc.Free(ja.ID); err != nil {
		return nil, err
	}
	if err := alloc.Free(jb.ID); err != nil {
		return nil, err
	}

	// Scenario 2: four aligned jobs.
	quarter := n / 4
	quarter -= quarter % g
	var jobs [][]int
	allCF := true
	var ids []sched.JobID
	for i := 0; i < 4; i++ {
		j, err := alloc.Alloc(quarter)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j.Hosts)
		allCF = allCF && j.ContentionFree
		ids = append(ids, j.ID)
	}
	worst, err = jointWorstHSD(rt, jobs)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"aligned quarters", "4", fmt.Sprint(allCF), fmt.Sprint(worst)})
	for _, id := range ids {
		if err := alloc.Free(id); err != nil {
			return nil, err
		}
	}

	// Scenario 3: two leaf-sharing jobs — each clean alone, contending
	// together.
	k, _ := cluster.IsRLFT()
	a := hostRange(0, 2*k)
	b := hostRange(2*k-k/2, k)
	worst, err = jointWorstHSD(rt, [][]int{a, b})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"leaf-sharing pair", "2", "false", fmt.Sprint(worst)})

	t.Notes = append(t.Notes,
		"aligned scenarios keep combined HSD = 1 on shared tables — the single-job guarantee composes",
		"the leaf-sharing pair shows why the allocator refuses such placements")
	return t, nil
}

func hostRange(start, size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// jointWorstHSD stage-aligns every job's Shift (shorter jobs cycle) and
// returns the worst combined per-link flow count.
func jointWorstHSD(rt route.Router, jobs [][]int) (int, error) {
	shifts := make([]*cps.ShiftSeq, len(jobs))
	maxStages := 0
	for i, hosts := range jobs {
		shifts[i] = cps.Shift(len(hosts))
		if s := shifts[i].NumStages(); s > maxStages {
			maxStages = s
		}
	}
	a := hsd.NewAnalyzer(rt)
	worst := 0
	for s := 0; s < maxStages; s++ {
		var pairs [][2]int
		for i, hosts := range jobs {
			st := shifts[i].Stage(s % shifts[i].NumStages())
			for _, p := range st {
				pairs = append(pairs, [2]int{hosts[p.Src], hosts[p.Dst]})
			}
		}
		res, err := a.Stage(pairs)
		if err != nil {
			return 0, err
		}
		if res.MaxHSD > worst {
			worst = res.MaxHSD
		}
	}
	return worst, nil
}

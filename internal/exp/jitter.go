package exp

import (
	"fmt"

	"fattree/internal/des"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// JitterOpts scales the OS-jitter study.
type JitterOpts struct {
	Cluster topo.PGFT
	Bytes   int64
	Jitters []des.Time
	Stages  int
	Seed    int64
}

// DefaultJitterOpts returns the standard sweep.
func DefaultJitterOpts() JitterOpts {
	return JitterOpts{
		Cluster: topo.Cluster324,
		Bytes:   256 << 10,
		Jitters: []des.Time{0, 10 * des.Microsecond, 50 * des.Microsecond, 200 * des.Microsecond},
		Stages:  4,
		Seed:    1,
	}
}

// JitterSensitivity quantifies the Section VII caveat: even with
// contention-free routing and ordering, OS jitter (skewed injection
// within a synchronized stage) stretches stage completion. For
// contention-free traffic the penalty is additive (roughly the worst
// skew); for a random node order the jitter adds on top of the queueing
// the hot spots already cause — motivating the clock-synchronization
// protocols the paper points to.
func JitterSensitivity(o JitterOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	lft := route.DModK(tp)
	n := tp.NumHosts()

	mkStages := func(ord *order.Ordering) ([][]netsim.Message, error) {
		job, err := mpi.NewJob(lft, ord)
		if err != nil {
			return nil, err
		}
		var stages [][]netsim.Message
		for s := 0; s < o.Stages; s++ {
			stage := job.StageMessages(shiftBy{n, (s*5 + 3) % n}, 0, o.Bytes)
			stages = append(stages, stage)
		}
		return stages, nil
	}
	goodStages, err := mkStages(order.Topology(n, nil))
	if err != nil {
		return nil, err
	}
	badStages, err := mkStages(order.Random(n, nil, o.Seed))
	if err != nil {
		return nil, err
	}

	cfg := netsim.DefaultConfig()
	nw, err := netsim.New(lft, simConfig(cfg))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Jitter sensitivity: synchronized stages, %d nodes, %d KiB", n, o.Bytes>>10),
		Header: []string{"jitter us", "ordered stage ms", "ordered slowdown", "random stage ms", "random slowdown"},
	}
	var base [2]des.Time
	for i, j := range o.Jitters {
		g, err := nw.RunStagesJitter(goodStages, j, o.Seed)
		if err != nil {
			return nil, err
		}
		r, err := nw.RunStagesJitter(badStages, j, o.Seed)
		if err != nil {
			return nil, err
		}
		gd := g.Duration / des.Time(o.Stages)
		rd := r.Duration / des.Time(o.Stages)
		if i == 0 {
			base[0], base[1] = gd, rd
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", j/des.Microsecond),
			fmt.Sprintf("%.3f", float64(gd)/float64(des.Millisecond)),
			f2(float64(gd) / float64(base[0])),
			fmt.Sprintf("%.3f", float64(rd)/float64(des.Millisecond)),
			f2(float64(rd) / float64(base[1])),
		})
	}
	t.Notes = append(t.Notes,
		"contention-free stages absorb jitter additively; contended stages stack it on top of queueing",
		"the paper's Section VII recommends clock-synchronization protocols to bound this skew")
	return t, nil
}

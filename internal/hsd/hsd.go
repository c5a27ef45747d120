// Package hsd implements the paper's analytic contention model: given a
// topology, a routing, an MPI node ordering and a collective permutation
// sequence, it counts the flows crossing every directed link in every
// stage. The per-link flow count is the Hot Spot Degree (HSD); a maximal
// HSD of 1 across all stages means the traffic is contention free and the
// network delivers full bandwidth and cut-through latency. This is the
// role the ibdm-based tool plays in Sections II and VII.
package hsd

import (
	"fmt"
	"math"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// StageResult is the contention summary of one stage.
type StageResult struct {
	// MaxHSD is the highest flow count on any directed link.
	MaxHSD int
	// Flows is the number of flows in the stage.
	Flows int
	// HotLinks is the number of directed links with more than one flow.
	HotLinks int
	// MaxUpHSD and MaxDownHSD split the maximum by direction.
	MaxUpHSD, MaxDownHSD int
}

// Report aggregates a whole sequence.
type Report struct {
	Sequence string
	Ordering string
	Routing  string
	Stages   []StageResult
}

// MaxHSD returns the worst per-link flow count over all stages.
func (r *Report) MaxHSD() int {
	m := 0
	for _, s := range r.Stages {
		if s.MaxHSD > m {
			m = s.MaxHSD
		}
	}
	return m
}

// AvgMaxHSD returns the mean over stages of the per-stage maximum — the
// quantity plotted in Figure 3 and tabulated in Table 3. Stages with no
// flows are skipped.
func (r *Report) AvgMaxHSD() float64 {
	sum, n := 0.0, 0
	for _, s := range r.Stages {
		if s.Flows == 0 {
			continue
		}
		sum += float64(s.MaxHSD)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ContentionFree reports whether every stage has HSD <= 1.
func (r *Report) ContentionFree() bool { return r.MaxHSD() <= 1 }

// SyncEffectiveBandwidth models fully synchronized stage progression: a
// stage completes when its most contended link drains, so it lasts
// MaxHSD time units instead of 1. The return value is the normalized
// effective bandwidth, total stage work over total time (1.0 means
// contention free).
func (r *Report) SyncEffectiveBandwidth() float64 {
	work, time := 0.0, 0.0
	for _, s := range r.Stages {
		if s.Flows == 0 {
			continue
		}
		work++
		time += float64(s.MaxHSD)
	}
	if time == 0 {
		return 1
	}
	return work / time
}

// Analyzer counts flows per directed link. It is reusable across stages
// and sequences to avoid re-allocating counters.
type Analyzer struct {
	rt route.Router
	pc *route.Compiled // non-nil when rt is a compiled path cache
	// cnt holds the per-directed-link flow counters interleaved as
	// cnt[link<<1|1] (up) and cnt[link<<1] (down) — the same encoding as
	// route.PathEntry, so the compiled fast path increments cnt[entry]
	// directly, branch free.
	cnt []int32
	// memb, when tracking is on, records per directed-link slot which
	// pair indexes of the current Stage crossed it — the flow-level
	// evidence behind contention blame reports. Same indexing as cnt.
	track bool
	memb  [][]int32
}

// NewAnalyzer creates an analyzer bound to a forwarding table set. When
// the router is a compiled path cache (*route.Compiled), Stage skips the
// per-hop Walk callback and iterates the packed head and tail views
// directly — the order-of-magnitude lever behind the parallel ordering
// sweeps.
func NewAnalyzer(rt route.Router) *Analyzer {
	nl := len(rt.Topology().Links)
	a := &Analyzer{rt: rt, cnt: make([]int32, 2*nl)}
	a.pc, _ = rt.(*route.Compiled)
	return a
}

// SetTrackFlows toggles flow-membership recording: with tracking on,
// every Stage call also remembers which pairs crossed each directed
// link, retrievable via StageFlows. Tracking costs one slice append per
// hop per flow, so it stays off for bulk sweeps and on for forensics.
func (a *Analyzer) SetTrackFlows(on bool) {
	a.track = on
	if on && a.memb == nil {
		a.memb = make([][]int32, len(a.cnt))
	}
}

// StageFlows returns the indexes into the last Stage call's pairs slice
// of the flows that crossed link l in the given direction. It returns
// nil when tracking is off; with tracking on the slice length always
// equals the link's flow counter. The returned slice is reused by the
// next Stage call — copy it to keep it.
func (a *Analyzer) StageFlows(l topo.LinkID, up bool) []int32 {
	if !a.track {
		return nil
	}
	i := int(l) << 1
	if up {
		i |= 1
	}
	return a.memb[i]
}

// Stage counts one stage of host-index flows: pairs are (source end-port,
// destination end-port). It returns the stage summary.
func (a *Analyzer) Stage(pairs [][2]int) (StageResult, error) {
	clear(a.cnt)
	if a.track {
		for i := range a.memb {
			a.memb[i] = a.memb[i][:0]
		}
		return a.stageTracked(pairs)
	}
	res := StageResult{Flows: len(pairs)}
	if a.pc != nil {
		cnt := a.cnt
		for _, p := range pairs {
			if p[0] == p[1] {
				continue
			}
			head, tail, err := a.pc.SplitPath(p[0], p[1])
			if err != nil {
				return res, err
			}
			for _, e := range head {
				cnt[e]++
			}
			for _, e := range tail {
				cnt[e]++
			}
		}
		return a.summarize(res), nil
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		err := a.rt.Walk(p[0], p[1], func(l topo.LinkID, up bool) {
			i := int(l) << 1
			if up {
				i |= 1
			}
			a.cnt[i]++
		})
		if err != nil {
			return res, err
		}
	}
	return a.summarize(res), nil
}

// stageTracked is the Stage loop with flow-membership recording, split
// out so the bulk path above stays append free. A compiled router replays
// its cached path through Walk, so one loop serves every router.
func (a *Analyzer) stageTracked(pairs [][2]int) (StageResult, error) {
	res := StageResult{Flows: len(pairs)}
	var idx int32
	visit := func(l topo.LinkID, up bool) {
		e := int(l) << 1
		if up {
			e |= 1
		}
		a.cnt[e]++
		a.memb[e] = append(a.memb[e], idx)
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		idx = int32(i)
		if err := a.rt.Walk(p[0], p[1], visit); err != nil {
			return res, err
		}
	}
	return a.summarize(res), nil
}

// summarize folds the per-link counters into the stage summary. Whether
// a link is hot is a coin flip under a random ordering, so the hot-link
// count takes the sign bit of 1-count instead of a branch.
func (a *Analyzer) summarize(res StageResult) StageResult {
	var maxUp, maxDown int32
	hot := uint32(0)
	for i := 0; i+1 < len(a.cnt); i += 2 {
		d, u := a.cnt[i], a.cnt[i+1]
		if u > maxUp {
			maxUp = u
		}
		if d > maxDown {
			maxDown = d
		}
		hot += uint32(1-u)>>31 + uint32(1-d)>>31
	}
	res.MaxUpHSD, res.MaxDownHSD, res.HotLinks = int(maxUp), int(maxDown), int(hot)
	res.MaxHSD = max(res.MaxUpHSD, res.MaxDownHSD)
	return res
}

// LinkLoads returns copies of the current per-link flow counters (after
// the last Stage call), for histogram-style reporting. Caller-provided
// buffers with sufficient capacity are reused instead of allocating, so
// a reporting loop over many stages can run allocation free; pass nil to
// allocate fresh slices.
func (a *Analyzer) LinkLoads(upBuf, downBuf []int32) (up, down []int32) {
	nl := len(a.cnt) / 2
	up = ensureLen(upBuf, nl)
	down = ensureLen(downBuf, nl)
	for i := 0; i < nl; i++ {
		up[i] = a.cnt[i<<1|1]
		down[i] = a.cnt[i<<1]
	}
	return up, down
}

func ensureLen(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// Analyze runs a full sequence through the analyzer: CPS ranks are
// translated to end-ports via the ordering.
func Analyze(rt route.Router, o *order.Ordering, seq cps.Sequence) (*Report, error) {
	return analyze(rt, o, seq, nil)
}

// AnalyzeHostPairs runs explicit end-port stages (no rank translation),
// used for raw traffic patterns like the adversarial Ring.
func AnalyzeHostPairs(rt route.Router, name string, stages [][][2]int) (*Report, error) {
	a := NewAnalyzer(rt)
	rep := &Report{Sequence: name, Ordering: "explicit", Routing: rt.Label()}
	for _, st := range stages {
		sr, err := a.Stage(st)
		if err != nil {
			return nil, err
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep, nil
}

// Sweep summarizes AvgMaxHSD over several orderings (the paper's 25
// random seeds): mean, min and max of the per-ordering averages.
type Sweep struct {
	Mean, Min, Max float64
	Samples        int
}

// SweepOrderings analyzes the sequence under each ordering and aggregates
// the per-ordering AvgMaxHSD values.
func SweepOrderings(rt route.Router, orders []*order.Ordering, seq cps.Sequence) (Sweep, error) {
	sw := Sweep{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, o := range orders {
		rep, err := Analyze(rt, o, seq)
		if err != nil {
			return Sweep{}, err
		}
		v := rep.AvgMaxHSD()
		sw.Mean += v
		if v < sw.Min {
			sw.Min = v
		}
		if v > sw.Max {
			sw.Max = v
		}
		sw.Samples++
	}
	if sw.Samples > 0 {
		sw.Mean /= float64(sw.Samples)
	} else {
		sw.Min, sw.Max = 0, 0
	}
	return sw, nil
}

// LevelLoads summarizes the current per-link counters (after the last
// Stage call) by tree level: index l holds the maximum flow count over
// links joining levels l and l+1 (index 0 = host links), split by
// direction.
func (a *Analyzer) LevelLoads() (up, down []int) {
	t := a.rt.Topology()
	up = make([]int, t.Spec.H)
	down = make([]int, t.Spec.H)
	for i := range t.Links {
		lvl := t.Links[i].Level - 1
		if u := int(a.cnt[i<<1|1]); u > up[lvl] {
			up[lvl] = u
		}
		if d := int(a.cnt[i<<1]); d > down[lvl] {
			down[lvl] = d
		}
	}
	return up, down
}

// AnalyzeServed is Analyze over the pairs a possibly faulted arena still
// serves: self-pairs and pairs c marks broken carry no traffic and are
// dropped, so the report reflects the flows the fabric can deliver — the
// daemon's standing Shift summary, ftfabric -report and the bake-off
// score. On a healthy arena it equals Analyze.
func AnalyzeServed(c *route.Compiled, o *order.Ordering, seq cps.Sequence) (*Report, error) {
	return analyze(c, o, seq, c)
}

func analyze(rt route.Router, o *order.Ordering, seq cps.Sequence, served *route.Compiled) (*Report, error) {
	if err := checkSizes(rt, o, seq); err != nil {
		return nil, err
	}
	a := NewAnalyzer(rt)
	rep := &Report{Sequence: seq.Name(), Ordering: o.Label, Routing: rt.Label()}
	var pairs [][2]int
	for s := 0; s < seq.NumStages(); s++ {
		pairs = hostPairs(pairs, seq.Stage(s), o, served)
		sr, err := a.Stage(pairs)
		if err != nil {
			return nil, err
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep, nil
}

func checkSizes(rt route.Router, o *order.Ordering, seq cps.Sequence) error {
	if o.Size() != seq.Size() {
		return fmt.Errorf("hsd: ordering size %d != sequence size %d", o.Size(), seq.Size())
	}
	if o.NumHosts() != rt.Topology().NumHosts() {
		return fmt.Errorf("hsd: ordering hosts %d != topology hosts %d", o.NumHosts(), rt.Topology().NumHosts())
	}
	return nil
}

// hostPairs translates one CPS stage into end-port pairs through the
// ordering, reusing buf. A non-nil served arena filters the stage down
// to the pairs it serves.
func hostPairs(buf [][2]int, stage cps.Stage, o *order.Ordering, served *route.Compiled) [][2]int {
	buf = buf[:0]
	for _, p := range stage {
		src, dst := o.HostOf[p.Src], o.HostOf[p.Dst]
		if served != nil && (src == dst || served.Broken(src, dst)) {
			continue
		}
		buf = append(buf, [2]int{src, dst})
	}
	return buf
}

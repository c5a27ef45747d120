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
	// route.PathEntry. It is raw[1:]: raw[0] is the sink cell the replay
	// kernel counts absent entries (an arena's zero cells, route.NoEntry
	// heads) into, which no reader of cnt ever sees.
	raw, cnt []int32
	pairs    [][2]int // end-port scratch of the Walk path's rank stages
	// memb, when tracking is on, records per directed-link slot which
	// pair indexes of the current Stage crossed it — the flow-level
	// evidence behind contention blame reports. Same indexing as cnt.
	track bool
	memb  [][]int32
}

// NewAnalyzer creates an analyzer bound to a forwarding table set. When
// the router is a compiled path cache (*route.Compiled), stages skip the
// per-hop Walk callback and replay the arena's slots in place — the
// order-of-magnitude lever behind the parallel ordering sweeps.
func NewAnalyzer(rt route.Router) *Analyzer {
	a := &Analyzer{rt: rt, raw: make([]int32, 2*len(rt.Topology().Links)+1)}
	a.cnt = a.raw[1:]
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
	return a.memb[route.PackEntry(l, up)]
}

// count is the replay kernel: it adds a path to raw as the arena stores
// it — head(src), then every cell of the fixed-stride (row(src), dst)
// slot — with no trimming and no branch on the data: a cell is its entry
// plus one, so it indexes raw itself, padding lands in the sink cell
// raw[0], and the unsigned head+1 wraps an absent head (route.NoEntry)
// there too. The pair must be in range, distinct and not Broken.
func count[E route.Cell](raw []int32, head route.PathEntry, slot []E) {
	raw[uint32(head)+1]++
	for _, e := range slot {
		raw[e]++
	}
}

// Stage counts one stage of host-index flows: pairs are (source end-port,
// destination end-port). It returns the stage summary.
func (a *Analyzer) Stage(pairs [][2]int) (StageResult, error) {
	res := StageResult{Flows: len(pairs)}
	c := a.pc
	if c == nil || a.track {
		return a.stageWalk(res, pairs)
	}
	n := uint(c.Topology().NumHosts())
	for _, p := range pairs {
		if uint(p[0]) >= n || uint(p[1]) >= n {
			return res, unserved(c, p[0], p[1])
		}
	}
	if c.Wide() {
		return replayPairs(a, c.Cells32(), res, pairs)
	}
	return replayPairs(a, c.Cells16(), res, pairs)
}

// replayPairs is Stage's compiled replay at the arena's cell width.
func replayPairs[E route.Cell](a *Analyzer, cells []E, res StageResult, pairs [][2]int) (StageResult, error) {
	c, raw := a.pc, a.raw
	clear(raw)
	n, stride, broken := c.Topology().NumHosts(), c.Stride(), c.NumBroken() > 0
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		if broken && c.Broken(p[0], p[1]) {
			return res, unserved(c, p[0], p[1])
		}
		row, head, _ := c.Row(p[0])
		count(raw, head, route.SlotAt(cells, n, stride, row, p[1]))
	}
	return a.summarize(res), nil
}

// unserved returns the arena's own error for a pair it does not serve.
func unserved(c *route.Compiled, src, dst int) error {
	_, err := c.AppendPath(nil, src, dst)
	return err
}

// stageRanks is Stage over one CPS stage of an ordering validated by
// checkJob, for the untracked analyzers of analyze and the sweeps: ranks
// are translated to end-ports on the fly, so the bulk path builds no pair
// list. With served set (arenas only), self-pairs and pairs the arena
// marks broken carry no traffic and are not counted as flows; otherwise a
// broken pair is an error.
func (a *Analyzer) stageRanks(st cps.Stage, o *order.Ordering, served bool) (StageResult, error) {
	c := a.pc
	if c == nil {
		a.pairs = a.pairs[:0]
		for _, p := range st {
			a.pairs = append(a.pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
		}
		return a.Stage(a.pairs)
	}
	if c.Wide() {
		return replayRanks(a, c.Cells32(), st, o, served)
	}
	return replayRanks(a, c.Cells16(), st, o, served)
}

// replayRanks is stageRanks' compiled replay at the arena's cell width.
func replayRanks[E route.Cell](a *Analyzer, cells []E, st cps.Stage, o *order.Ordering, served bool) (StageResult, error) {
	c, raw := a.pc, a.raw
	clear(raw)
	res := StageResult{Flows: len(st)}
	n, stride, broken, hostOf := c.Topology().NumHosts(), c.Stride(), c.NumBroken() > 0, o.HostOf
	for _, p := range st {
		src, dst := hostOf[p.Src], hostOf[p.Dst]
		if src == dst || broken && c.Broken(src, dst) {
			if !served && src != dst {
				return res, unserved(c, src, dst)
			}
			if served {
				res.Flows--
			}
			continue
		}
		row, head, _ := c.Row(src)
		count(raw, head, route.SlotAt(cells, n, stride, row, dst))
	}
	return a.summarize(res), nil
}

// stageWalk is Stage for routers without an arena and for forensics: it
// walks every pair hop by hop — a compiled router replays its cached
// path through Walk — and, with tracking on, records flow membership.
func (a *Analyzer) stageWalk(res StageResult, pairs [][2]int) (StageResult, error) {
	clear(a.raw)
	for i := range a.memb {
		a.memb[i] = a.memb[i][:0]
	}
	var idx int32
	visit := func(l topo.LinkID, up bool) {
		e := route.PackEntry(l, up)
		a.cnt[e]++
		if a.track {
			a.memb[e] = append(a.memb[e], idx)
		}
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
	return analyze(rt, o, seq, false)
}

// Sweep summarizes AvgMaxHSD over several orderings (the paper's 25
// random seeds): mean, min and max of the per-ordering averages.
type Sweep struct {
	Mean, Min, Max float64
	Samples        int
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
	return analyze(c, o, seq, true)
}

func analyze(rt route.Router, o *order.Ordering, seq cps.Sequence, served bool) (*Report, error) {
	if err := checkJob(rt, o, seq); err != nil {
		return nil, err
	}
	a := NewAnalyzer(rt)
	rep := &Report{Sequence: seq.Name(), Ordering: o.Label, Routing: rt.Label()}
	for s := 0; s < seq.NumStages(); s++ {
		sr, err := a.stageRanks(seq.Stage(s), o, served)
		if err != nil {
			return nil, err
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep, nil
}

// checkJob validates an ordering against the sequence and the fabric
// once, so the per-pair loops can index by its end-ports unchecked.
func checkJob(rt route.Router, o *order.Ordering, seq cps.Sequence) error {
	if o.Size() != seq.Size() {
		return fmt.Errorf("hsd: ordering size %d != sequence size %d", o.Size(), seq.Size())
	}
	n := rt.Topology().NumHosts()
	if o.NumHosts() != n {
		return fmt.Errorf("hsd: ordering hosts %d != topology hosts %d", o.NumHosts(), n)
	}
	for r, h := range o.HostOf {
		if h < 0 || h >= n {
			return fmt.Errorf("hsd: ordering %s: rank %d on end-port %d, out of range [0,%d)", o.Label, r, h, n)
		}
	}
	return nil
}

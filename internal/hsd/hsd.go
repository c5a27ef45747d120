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
	// Flows is the number of flows in the stage: its pairs that carry
	// traffic.
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
	// Climbed is how many of Stages Analyze counted by their flows' climbs
	// alone (stageRanks); it counted the others in full.
	Climbed int
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
	// The replay's batch: the (row, dst) of up to batch queued flows and
	// the cells of their tails.
	rows, dsts *[batch]int32
	cells      []uint32
	// climb is climbWidth(rt): non-zero when stageRanks may count a
	// stage's climbs alone.
	climb int
	// srcKey and dstKey hold the climb keys of keyed's ranks
	// (route.Compiled.ClimbKeys), climb of them per rank; ends is the
	// scratch of Analyze's shapeOf calls (checkJob leaves no more ranks
	// than end-ports).
	srcKey, dstKey []uint64
	keyed          *order.Ordering
	ends           []uint64
	pairs          [][2]int // end-port scratch of the Walk path's rank stages
	// memb, when tracking is on, records per directed-link slot which
	// pair indexes of the current Stage crossed it — the flow-level
	// evidence behind contention blame reports. Same indexing as cnt.
	track bool
	memb  [][]int32
}

// NewAnalyzer creates an analyzer bound to a forwarding table set. When
// the router is a compiled path cache (*route.Compiled), stages skip the
// per-hop Walk callback and count the arena's tails straight from its cell
// source — the order-of-magnitude lever behind the parallel ordering
// sweeps.
func NewAnalyzer(rt route.Router) *Analyzer {
	a := &Analyzer{rt: rt, raw: make([]int32, 2*len(rt.Topology().Links)+1)}
	a.cnt = a.raw[1:]
	if a.pc, _ = rt.(*route.Compiled); a.pc != nil {
		a.rows, a.dsts, a.cells = new([batch]int32), new([batch]int32), make([]uint32, batch*a.pc.Stride())
		if a.climb = climbWidth(rt); a.climb > 0 {
			n := rt.Topology().NumHosts()
			a.srcKey, a.dstKey, a.ends = make([]uint64, n*a.climb), make([]uint64, n*a.climb), rankBits(n)
		}
	}
	return a
}

// climbWidth is the width of stageRanks' climbing replay over rt: the
// ClimbWidth of an arena that breaks no pair — the keys cannot leave a
// broken pair out — and 0, the full count, over any other router.
func climbWidth(rt route.Router) int {
	if c, ok := rt.(*route.Compiled); ok && c.NumBroken() == 0 {
		return c.ClimbWidth()
	}
	return 0
}

// batch is how many flows the replay queues before it reads their tails:
// enough that the arena's cell source runs as one tight loop, few enough
// that the cells stay in L1.
const batch = 256

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

// queue adds the flow src->dst to the stage being replayed, as the arena
// hands it out — its head now, its tail with the batch — as the batch's
// flow i, and returns i+1: the batch is full (flush it) at batch. The
// pair must be in range, distinct and not Broken.
func (a *Analyzer) queue(i, src, dst int) int {
	row, head, _ := a.pc.Row(src)
	a.raw[uint32(head)+1]++
	a.rows[uint(i)%batch], a.dsts[uint(i)%batch] = int32(row), int32(dst)
	return i + 1
}

// flush is the replay kernel: it reads the n queued flows' tails from
// the arena's cell source in one call and counts every cell, with no
// trimming and no branch on the data. A cell is its entry plus one, so it
// indexes raw itself, an empty cell lands in the sink cell raw[0], and
// the unsigned head+1 of queue wraps an absent head (route.NoEntry) there
// too.
func (a *Analyzer) flush(n int) {
	a.pc.Tails(a.cells, a.rows[:n], a.dsts[:n])
	raw := a.raw
	for _, e := range a.cells[:n*a.pc.Stride()] {
		raw[e]++
	}
}

// Stage counts one stage of host-index flows: pairs are (source end-port,
// destination end-port). It returns the stage summary. A self pair, or a
// pair the arena marks Broken, carries no traffic and is not counted as a
// flow; an end-port outside the fabric, or a Walk error of a router
// without an arena, is an error.
func (a *Analyzer) Stage(pairs [][2]int) (StageResult, error) {
	n := uint(a.rt.Topology().NumHosts())
	for _, p := range pairs {
		if uint(p[0]) >= n || uint(p[1]) >= n {
			return StageResult{}, fmt.Errorf("hsd: %s: pair %d->%d out of range [0,%d)", a.rt.Label(), p[0], p[1], n)
		}
	}
	c := a.pc
	if c == nil || a.track {
		return a.stageWalk(pairs)
	}
	clear(a.raw)
	res := StageResult{Flows: len(pairs)}
	broken, q := c.NumBroken() > 0, 0
	for _, p := range pairs {
		if p[0] == p[1] || broken && c.Broken(p[0], p[1]) {
			res.Flows--
			continue
		}
		if q = a.queue(q, p[0], p[1]); q == batch {
			a.flush(q)
			q = 0
		}
	}
	a.flush(q)
	return a.summarize(res), nil
}

// shape is a stage's verdict for the climbing replay, taken on its ranks:
// flows counts its pairs other than self pairs, and once is whether none
// of those shares a source rank or a destination rank with another.
// checkJob keeps HostOf injective, so a pair is a self pair, and two
// pairs share an end-port, exactly when their ranks do: the verdict holds
// under every ordering, and a sweep takes it once per stage. rot is the
// stage's displacement d when its sequence declares it a rotation
// (cps.Rotating), whose pairs the climbing replay then reads from the
// keys in order, and 0 otherwise.
type shape struct {
	flows int
	once  bool
	rot   int
}

// stageShape returns seq's stage s and its shape for stageRanks, which
// reads the shape only when climbing. A declared rotation of N ranks is N
// flows, each rank sending once and receiving once, and the climbing
// replay counts it without its pairs: it is no pair list, its shape alone.
// ends is shapeOf's scratch.
func stageShape(seq cps.Sequence, s int, climbing bool, ends []uint64) (cps.Stage, shape) {
	if !climbing {
		return seq.Stage(s), shape{}
	}
	if r, ok := seq.(cps.Rotating); ok {
		if d := r.Rotation(s); d > 0 {
			return nil, shape{flows: seq.Size(), once: true, rot: d}
		}
	}
	st := seq.Stage(s)
	return st, shapeOf(st, ends)
}

// shapeOf takes st's shape over ranks below 64*len(ends)/2; ends is
// scratch. A stage that is not once reads as the zero shape.
func shapeOf(st cps.Stage, ends []uint64) shape {
	clear(ends)
	sent, got := ends[:len(ends)/2], ends[len(ends)/2:]
	sh := shape{flows: len(st), once: true}
	for _, p := range st {
		if p.Src == p.Dst {
			sh.flows--
			continue
		}
		s, d := uint32(p.Src), uint32(p.Dst)
		if (sent[s/64]>>(s%64)|got[d/64]>>(d%64))&1 != 0 {
			return shape{}
		}
		sent[s/64] |= 1 << (s % 64)
		got[d/64] |= 1 << (d % 64)
	}
	return sh
}

// rankBits returns shapeOf's scratch for ranks below size.
func rankBits(size int) []uint64 { return make([]uint64, 2*((size+63)/64)) }

// stageRanks is Stage over one CPS stage st of an ordering validated by
// checkJob, for the untracked analyzers of Analyze and the sweeps: ranks
// are translated to end-ports on the fly, so the bulk path builds no pair
// list. sh is st's shape, read only when climb is non-zero; st may be nil
// when sh is a rotation (stageShape).
//
// On an arena that certifies Theorem 2 (climbWidth) a stage whose shape
// is once is counted by its flows' climbs alone. While no end-port sends
// twice or receives twice, no host link carries two flows either way, and
// no switch link is descended towards two destinations, so no descent
// carries two flows either: only the climbs can contend, and the stage's
// summary follows from theirs. Any other stage is counted in full. Either
// way the result is Stage's, bit for bit; only the counters LinkLoads
// reads differ, which no caller of stageRanks reads.
func (a *Analyzer) stageRanks(st cps.Stage, sh shape, o *order.Ordering) (StageResult, error) {
	if a.pc == nil {
		a.pairs = a.pairs[:0]
		for _, p := range st {
			a.pairs = append(a.pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
		}
		return a.Stage(a.pairs)
	}
	if a.climb > 0 && sh.once {
		return a.climbs(st, sh, o), nil
	}
	return a.replay(st, o), nil
}

// replay counts the whole path of every flow of one stage for stageRanks.
func (a *Analyzer) replay(st cps.Stage, o *order.Ordering) StageResult {
	c := a.pc
	clear(a.raw)
	res := StageResult{Flows: len(st)}
	broken, hostOf, q := c.NumBroken() > 0, o.HostOf, 0
	for _, p := range st {
		src, dst := hostOf[p.Src], hostOf[p.Dst]
		if src == dst || broken && c.Broken(src, dst) {
			res.Flows--
			continue
		}
		if q = a.queue(q, src, dst); q == batch {
			a.flush(q)
			q = 0
		}
	}
	a.flush(q)
	return a.summarize(res)
}

// climbs is replay counting each flow's climb alone, for a stage whose
// shape is once, on an arena that certifies Theorem 2. A climb hop is the
// ClimbHop of its source rank's key and its destination rank's, so the
// count is one pass per climb level over the stage's rank pairs, with no
// branch on the data: a flow adds 1 at its hop's cell while it climbs and
// 0 once it has turned (a self pair's two keys name one ancestor), and
// that cell is a real up-port counter either way. The pass keeps the
// summary as it counts: a counter is never above the true maximum, so the
// running maximum of the values it leaves is exact, and a link turns hot
// on the one increment that takes it to 2. The keys are o's, laid out
// again whenever the analyzer meets another ordering.
//
// A rotation by d (sh.rot) is not read from st: its pairs in rank order
// are ranks 0..N-d-1 sending to d..N-1, then N-d..N-1 sending to 0..d-1,
// so the pass is climbRun over those two runs of the keys.
//
// No host link carries two of the flows either way, and no descent does,
// so the up counters at the climb levels are the only ones that can say
// more than one flow: what the pass leaves in the other counters is not
// the stage's load, and no caller of stageRanks reads it.
func (a *Analyzer) climbs(st cps.Stage, sh shape, o *order.Ordering) StageResult {
	if a.keyed != o {
		a.pc.ClimbKeys(a.srcKey, a.dstKey, o.HostOf)
		a.keyed = o
	}
	clear(a.raw)
	raw, n, d := a.raw, len(o.HostOf), sh.rot
	var top int32
	var hot uint32
	for i := 0; i < a.climb; i++ {
		src, dst := a.srcKey[i*n:][:n], a.dstKey[i*n:][:n]
		if d > 0 {
			top, hot = climbRun(raw, src[:n-d], dst[d:], top, hot)
			top, hot = climbRun(raw, src[n-d:], dst[:d], top, hot)
			continue
		}
		for _, p := range st {
			top, hot = climbHop(raw, src[p.Src], dst[p.Dst], top, hot)
		}
	}
	one := int32(min(sh.flows, 1)) // the load of every host link a flow takes
	res := StageResult{Flows: sh.flows, MaxUpHSD: int(max(top, one)), MaxDownHSD: int(one), HotLinks: int(hot)}
	res.MaxHSD = res.MaxUpHSD
	return res
}

// climbRun is climbs' pass over the flows src[j] -> dst[j] of one climb
// level, whose keys two aligned runs hold, continuing the running maximum
// top and hot-link count hot. It stays out of line: inlined into climbs,
// the compiler kept the runs' slices on the stack and reloaded them on
// every hop, and most of what reading the keys in order saves was lost.
//
//go:noinline
func climbRun(raw []int32, src, dst []uint64, top int32, hot uint32) (int32, uint32) {
	dst = dst[:len(src)]
	for j, s := range src {
		top, hot = climbHop(raw, s, dst[j], top, hot)
	}
	return top, hot
}

// climbHop counts the climb hop of the flow whose keys at one level are s
// and d, and returns the running maximum top and hot-link count hot with
// it: the flow adds its climbing flag at its cell, and a link turns hot on
// the increment that takes it to 2.
func climbHop(raw []int32, s, d uint64, top int32, hot uint32) (int32, uint32) {
	c, inc := route.ClimbHop(s, d)
	v := raw[c] + inc
	raw[c] = v
	return max(top, v), hot + uint32(inc)&(uint32((v^2)-1)>>31) // inc && v == 2
}

// stageWalk is Stage for routers without an arena and for forensics: it
// walks every pair hop by hop — a compiled router replays its cached
// path through Walk — and, with tracking on, records flow membership.
func (a *Analyzer) stageWalk(pairs [][2]int) (StageResult, error) {
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
	res := StageResult{Flows: len(pairs)}
	c := a.pc
	broken := c != nil && c.NumBroken() > 0
	for i, p := range pairs {
		if p[0] == p[1] || broken && c.Broken(p[0], p[1]) {
			res.Flows--
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
	var hotUp, hotDown uint32 // two accumulators: no add chain carried across links
	cnt := a.cnt
	for i := 1; i < len(cnt); i += 2 {
		d, u := cnt[i-1], cnt[i]
		maxUp, maxDown = max(maxUp, u), max(maxDown, d)
		hotUp += uint32(1-u) >> 31
		hotDown += uint32(1-d) >> 31
	}
	res.MaxUpHSD, res.MaxDownHSD, res.HotLinks = int(maxUp), int(maxDown), int(hotUp+hotDown)
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

// Sweep summarizes AvgMaxHSD over several orderings (the paper's 25
// random seeds): mean, min and max of the per-ordering averages.
type Sweep struct {
	Mean, Min, Max float64
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

// checkJob validates an ordering against the sequence and the fabric
// once, so the per-pair loops can index by its end-ports unchecked, and
// so a verdict shapeOf takes on ranks holds of end-ports: no two ranks may
// share one. owner is scratch of NumHosts cells.
func checkJob(rt route.Router, o *order.Ordering, seq cps.Sequence, owner []int32) error {
	if o.Size() != seq.Size() {
		return fmt.Errorf("hsd: ordering size %d != sequence size %d", o.Size(), seq.Size())
	}
	n := rt.Topology().NumHosts()
	if o.NumHosts() != n {
		return fmt.Errorf("hsd: ordering hosts %d != topology hosts %d", o.NumHosts(), n)
	}
	clear(owner)
	for r, h := range o.HostOf {
		if h < 0 || h >= n {
			return fmt.Errorf("hsd: ordering %s: rank %d on end-port %d, out of range [0,%d)", o.Label, r, h, n)
		}
		if q := owner[h] - 1; q >= 0 {
			return fmt.Errorf("hsd: ordering %s: ranks %d and %d share end-port %d", o.Label, q, r, h)
		}
		owner[h] = int32(r) + 1
	}
	return nil
}

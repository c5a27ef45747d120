package route

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fattree/internal/par"
	"fattree/internal/topo"
)

// ErrNoPath marks a pair with no usable path in a leniently compiled
// cache (see CompileLenient). Callers distinguish it from structural
// errors with errors.Is.
var ErrNoPath = errors.New("no path")

// PathEntry is one hop of a compiled path, packed into an int32: the link
// id shifted left once with the direction in bit 0 (1 = up). Packing keeps
// a full 1944-host path table under one cache-friendly []int32 arena.
type PathEntry = int32

// PackEntry packs a link traversal into a PathEntry.
func PackEntry(l topo.LinkID, up bool) PathEntry {
	e := PathEntry(l) << 1
	if up {
		e |= 1
	}
	return e
}

// EntryLink unpacks the link id of a PathEntry.
func EntryLink(e PathEntry) topo.LinkID { return topo.LinkID(e >> 1) }

// EntryUp unpacks the direction bit of a PathEntry.
func EntryUp(e PathEntry) bool { return e&1 == 1 }

// NoEntry is the absent PathEntry: the head of a source that owns its
// row. It is one below the smallest real entry, so a counter array with
// one sink cell in front counts any head as raw[head+1]++.
const NoEntry PathEntry = -1

// Compiled is a path cache over any deterministic Router, immutable once
// built, so every reader is safe for unlimited concurrent use — the
// property the parallel HSD sweeps rely on.
//
// A path is head(src) ++ tail(row(src), dst). Forwarding tables are
// destination-based, so under an LFT every single-uplink host that enters
// the fabric through the same first switch shares everything after its
// first hop: those sources read one tail row, walked from that switch, and
// keep only their own uplink as head (108 rows instead of 1944 on the
// paper's largest cluster). Every other source — any non-LFT router, hosts
// with several uplinks — owns a row walked from the host itself and has
// no head; only the grouping differs.
//
// Tables D-Mod-K built carry two port vectors per level (eq. (1) and the
// child digit), and a tail under them is computed from their closed form
// (closed.go) on every read, so an arena over healthy D-Mod-K tables
// stores no tail at all. What it stores are the destination columns that
// may differ from the closed form — the columns the tables store, which
// a write put there, and those a Repatch re-walked after a fault — and,
// for every other router, every column.
// Stored tails live in one flat arena of fixed-stride slots, so a lookup
// is one multiply. A cell is a uint32 holding a PathEntry plus one: 0 is
// absent (the padding after a short tail), and a counter array with one
// sink cell in front is indexed by the cell itself. The tree height sets
// the stride — an up*/down* tail is at most 2h hops from a host, 2h-1
// from its first switch — so every slot's place is known before any path
// is walked and a compile writes the arena in place; shorter tails are
// padded. Every reader goes through Tails, whichever
// way a column is held. The closed form also certifies Theorem 2 once,
// when it is laid out: then no descent can carry two flows between
// distinct end-ports, and the HSD replay counts the tails' climbs alone,
// from two keys per rank (ClimbWidth, ClimbKeys).
//
// Compiling a randomized router (Adaptive) freezes one draw per pair and
// is almost certainly not what you want; compile forwarding tables
// (LFT) or deterministic source-based schemes (SModK) instead.
type Compiled struct {
	inner Router
	n     int
	rowOf []int32     // per source: the row it reads
	head  []PathEntry // per source: its first hop, or NoEntry
	rep   []int32     // per row: its lowest-indexed source
	form  *closedForm // the columns not stored follow it; nil when every column is stored
	// col is per destination its column among the stored slots, or -1
	// when form computes it; a row's cols slots are contiguous.
	col    []int32
	cols   int
	stride int      // stored tail (r,d) is cells[(r*cols+col[d])*stride:][:stride], zero-padded
	cells  []uint32 // the stored cells
	// The two causes of the pairs a lenient compile cannot serve, nil
	// while none: cut has a bit per source the tables cut off
	// (LFT.CutHost), refused a bit per row and destination whose tail the
	// fill refused, each row in whole words so rows filled in parallel
	// share none — rows x n bits, n x n when every source owns its row.
	cut, refused []uint64
	numBroken    int
}

// Compile caches every path of r: tails its tables' closed form computes
// are not walked at all, the rest are walked in parallel across rows. It
// returns r unchanged when it is already a *Compiled. When some pair does
// not walk, it returns the error of the lowest row that has one, the same
// whatever the worker count.
func Compile(r Router) (*Compiled, error) { return build(r, nil, nil, 0, false) }

// CompileParallel is Compile with an explicit worker count (<= 0 uses
// GOMAXPROCS).
func CompileParallel(r Router, workers int) (*Compiled, error) {
	return build(r, nil, nil, workers, false)
}

// CompileLenient is Compile for routers with degraded pairs — the
// rerouted tables of a faulted fabric above all. Pairs the inner router
// fails to walk (dead ends after a fault has cut every minimal path) and
// pairs it walks over a non-minimal path (longer than 2*LCALevel — a
// detour a correct fat-tree reroute never takes, so any occurrence is a
// routing bug the arena must refuse to serve) are recorded instead of
// aborting the build; every reader reports them as ErrNoPath and
// NumBroken counts them. A fully routable minimal router compiles to the
// exact same arena as Compile.
func CompileLenient(r Router) (*Compiled, error) { return build(r, nil, nil, 0, true) }

// Repatch returns a copy of the arena with the tails towards the columns
// dsts re-walked leniently through inner, in parallel over rows, and
// stored; no other column changes. It equals a fresh CompileLenient of
// inner as long as dsts names every column whose entries differ from the
// tables the arena was built from. The grouping and closed form are
// shared with the receiver; only the stored cells are copied, so a repair
// costs memory in proportion to the columns it touched. Pairs broken in
// the receiver stay broken: repair from a pristine healthy arena rather
// than chaining patches across fault sets.
func (c *Compiled) Repatch(inner Router, dsts []int) (*Compiled, error) {
	return build(inner, c, dsts, 0, true)
}

// group assigns every source its row and head — under an LFT a host with
// a single uplink shares the row of its first switch — and returns the
// node each row is walked from.
func (c *Compiled) group() (from []topo.NodeID) {
	t := c.inner.Topology()
	_, lft := c.inner.(*LFT)
	rowAt := map[topo.NodeID]int32{} // node a row is walked from -> row
	for src := range c.rowOf {
		host := t.Host(src)
		start := host.ID
		c.head[src] = NoEntry
		if lft && len(host.Up) == 1 {
			start = t.PeerNode(host.Up[0])
			c.head[src] = PackEntry(t.Ports[host.Up[0]].Link, true)
		}
		row, ok := rowAt[start]
		if !ok {
			row = int32(len(c.rep))
			rowAt[start] = row
			c.rep = append(c.rep, int32(src))
			from = append(from, start)
		}
		c.rowOf[src] = row
	}
	return from
}

// walkRow visits the hops of row's tail towards dst under r: from the
// entry switch of a shared row, from the source itself otherwise.
func (c *Compiled) walkRow(r Router, row, dst int, visit func(topo.LinkID, bool)) error {
	src := int(c.rep[row])
	if c.head[src] == NoEntry {
		return r.Walk(src, dst, visit)
	}
	t := r.Topology()
	return r.(*LFT).walkFrom(t.PeerNode(t.Host(src).Up[0]), dst, visit)
}

// WalkTail visits the hops of row's tail towards dst as the router the
// arena was compiled from walks them: from the entry switch of a shared
// row, from its one source otherwise. Forwarding tables are
// destination-based, so for every source of a shared row the router's
// path is its head then exactly these hops — what lets the checks that
// hold an arena to its router compare a tail once, not once per source.
// row must be a row of the arena (Row).
func (c *Compiled) WalkTail(row, dst int, visit func(topo.LinkID, bool)) error {
	return c.walkRow(c.inner, row, dst, visit)
}

// minimalTail returns the tail length of a minimal path from row to dst.
func (c *Compiled) minimalTail(g topo.PGFT, row, dst int) int {
	src := int(c.rep[row])
	if c.head[src] == NoEntry {
		return 2 * g.LCALevel(src, dst)
	}
	return 2*max(1, g.LCALevel(src, dst)) - 1
}

// words returns how many words a bit per host takes: a row's share of
// refused, and all of cut.
func (c *Compiled) words() int { return (c.n + 63) / 64 }

// refusedRow returns row's words of refused, which must not be nil.
func (c *Compiled) refusedRow(row int) []uint64 { return c.refused[row*c.words() : (row+1)*c.words()] }

// hasBit reports whether bit i of set is one; a nil set has none.
func hasBit(set []uint64, i int) bool { return set != nil && set[i/64]&(1<<(i%64)) != 0 }

// slot returns the stored slot of row's tail towards the stored column dst.
func (c *Compiled) slot(row, dst int) []uint32 {
	i := (row*c.cols + int(c.col[dst])) * c.stride
	return c.cells[i : i+c.stride]
}

// filler returns build's slot-fill primitive: fill(row, dst) walks row's
// tail towards the stored column dst through r straight into its slot and
// pads the rest. A walk that fails, a tail longer than the stride (no
// up*/down* path is) and — leniently — a delivered but non-minimal one
// are refused: the slot is left empty and the error says why, for the
// caller to record the refusal rather than serve a detour that silently
// breaks the minimality guarantee. One filler serves one goroutine.
func (c *Compiled) filler(r Router, lenient bool) func(row, dst int) error {
	g := r.Topology().Spec
	var s []uint32
	hops := 0
	visit := func(l topo.LinkID, up bool) {
		if hops < len(s) {
			s[hops] = uint32(PackEntry(l, up) + 1)
		}
		hops++
	}
	return func(row, dst int) error {
		s, hops = c.slot(row, dst), 0
		err := c.walkRow(r, row, dst, visit)
		if err == nil && hops > len(s) {
			err = fmt.Errorf("route: %s: %d-hop tail towards %d exceeds the up*/down* bound %d", r.Label(), hops, dst, len(s))
		} else if err == nil && lenient && hops != c.minimalTail(g, row, dst) {
			err = ErrNoPath // delivered, but by a detour: no usable path
		}
		if err != nil {
			hops = 0
		}
		clear(s[hops:])
		return err
	}
}

// build is the one arena builder. With a nil base it groups r's sources
// into rows and stores every destination column of a fresh arena — when
// r's tables have a closed form, only the columns they store; otherwise
// it shares base's grouping and closed form, copies its stored cells,
// cut hosts and refused tails, and stores and fills the columns cols
// besides. Strictly, a host r's tables have cut off (LFT.CutHost) or a
// refused slot fails the build; leniently, the host is cut and the slot
// refused, whichever columns this build walks.
func build(r Router, base *Compiled, cols []int, workers int, lenient bool) (*Compiled, error) {
	t := r.Topology()
	n := t.NumHosts()
	lft, _ := r.(*LFT)
	var c *Compiled
	if base == nil {
		if rc, ok := r.(*Compiled); ok {
			return rc, nil
		}
		c = &Compiled{inner: r, n: n, rowOf: make([]int32, n), head: make([]PathEntry, n), col: make([]int32, n)}
		from := c.group()
		c.stride = 2 * t.Spec.H
		if c.head[0] != NoEntry { // every host has as many uplinks: all rows shared, or none
			c.stride--
		}
		if lft != nil && lft.vec != nil {
			c.form = newClosedForm(t, lft.vec, 2*t.Spec.H-c.stride, from)
		}
		for dst := range c.col { // the columns r's tables store, or every one
			c.col[dst] = -1
			if c.form == nil || lft.column(dst) != nil {
				c.col[dst], cols = int32(len(cols)), append(cols, dst)
			}
		}
		c.cols = len(cols)
		total := len(c.rep) * c.cols * c.stride
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("route: compile %s: %d path entries overflow the int32 arena bound", r.Label(), total)
		}
		c.cells = make([]uint32, total)
	} else {
		if n != base.n {
			return nil, fmt.Errorf("route: repatch %s: inner router has %d hosts, arena %d", base.Label(), n, base.n)
		}
		if lft == nil && len(base.rep) < n {
			return nil, fmt.Errorf("route: repatch %s: shared rows need forwarding tables, not %s", base.Label(), r.Label())
		}
		for _, dst := range cols {
			if dst < 0 || dst >= n {
				return nil, fmt.Errorf("route: repatch %s: destination %d out of range [0,%d)", base.Label(), dst, n)
			}
		}
		p := *base
		c = &p
		c.inner = r
		c.col, c.cut, c.refused = slices.Clone(base.col), slices.Clone(base.cut), slices.Clone(base.refused)
		for _, dst := range cols {
			if c.col[dst] < 0 {
				c.col[dst] = int32(c.cols)
				c.cols++
			}
		}
		c.cells = base.restride(c.cols)
	}
	for h := 0; lft != nil && lft.cut != nil && h < n; h++ {
		if !lft.isCut(h) {
			continue
		}
		if !lenient && n > 1 { // a lone host sends no pair to break
			return nil, fmt.Errorf("route: compile %s: host %d is cut off", r.Label(), h)
		}
		if c.cut == nil {
			c.cut = make([]uint64, c.words())
		}
		c.cut[h/64] |= 1 << (h % 64)
	}
	if err := c.fillColumns(r, cols, workers, lenient); err != nil {
		return nil, err
	}
	c.tally()
	return c, nil
}

// tally counts the broken pairs from their causes — n-1 per cut source,
// and per other source its row's refusals but the one towards itself —
// and drops both sets when they break nothing.
func (c *Compiled) tally() {
	c.numBroken = 0
	if c.cut == nil && c.refused == nil {
		return
	}
	refusals := make([]int, len(c.rep)) // per row
	for row := 0; c.refused != nil && row < len(refusals); row++ {
		for _, w := range c.refusedRow(row) {
			refusals[row] += bits.OnesCount64(w)
		}
	}
	for src, row := range c.rowOf {
		if c.Cut(src) {
			c.numBroken += c.n - 1
		} else if c.numBroken += refusals[row]; c.Refused(int(row), src) {
			c.numBroken--
		}
	}
	if c.numBroken == 0 {
		c.cut, c.refused = nil, nil
	}
}

// restride copies c's stored cells into an arena of cols columns per
// row: a row's slots keep their places, the new columns follow them.
func (c *Compiled) restride(cols int) []uint32 {
	if cols == c.cols {
		return slices.Clone(c.cells)
	}
	out := make([]uint32, len(c.rep)*cols*c.stride)
	was := c.cols * c.stride
	for row := range c.rep {
		copy(out[row*cols*c.stride:], c.cells[row*was:(row+1)*was])
	}
	return out
}

// fillColumns fills the slots of every row towards the stored columns
// dsts, in parallel over rows on par.Do with one filler per worker
// (workers <= 0 uses GOMAXPROCS): each worker walks a row straight into
// slots, and records its refusals in words, that no other row touches,
// so no locking is needed. A strict build stops at a refused slot and
// returns the error of the lowest row that refused one.
func (c *Compiled) fillColumns(r Router, dsts []int, workers int, lenient bool) error {
	if len(dsts) == 0 {
		return nil
	}
	rows := len(c.rep)
	if lenient && c.refused == nil {
		c.refused = make([]uint64, rows*c.words())
	}
	readers := make([]int, rows) // per-row source count
	for _, row := range c.rowOf {
		readers[row]++
	}
	newFiller := func() func(row, dst int) error { return c.filler(r, lenient) }
	return par.Do(rows, workers, newFiller, func(fill func(row, dst int) error, row int) error {
		own := -1 // the destination no pair reads: a row's only source
		if readers[row] == 1 {
			own = int(c.rep[row])
		}
		for _, dst := range dsts {
			err := fill(row, dst)
			if err == nil || dst == own {
				continue
			}
			if !lenient {
				return fmt.Errorf("route: compile %s: %w", r.Label(), err)
			}
			c.refusedRow(row)[dst/64] |= 1 << (dst % 64)
		}
		return nil
	})
}

// Broken reports whether a leniently compiled pair has no usable
// (delivered and minimal) path: src ≠ dst, and the tables cut src off
// (Cut) or the fill refused the tail src's row reads towards dst
// (Refused) — the two ways head(src) ++ tail(row(src), dst) fails.
// Out-of-range pairs report false; the path readers still reject them.
func (c *Compiled) Broken(src, dst int) bool {
	if c.numBroken == 0 || src == dst || src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		return false
	}
	return c.Cut(src) || c.Refused(int(c.rowOf[src]), dst)
}

// Cut reports whether the tables had cut src off (LFT.CutHost), which
// breaks every pair src sends. src must be in [0, NumHosts).
func (c *Compiled) Cut(src int) bool { return hasBit(c.cut, src) }

// Refused reports whether a lenient compile refused row's tail towards
// dst (not walked, or walked non-minimally), which breaks every pair of
// the row's sources but dst towards dst. row must be a row of the arena
// (Row), dst in [0, NumHosts).
func (c *Compiled) Refused(row, dst int) bool {
	return c.refused != nil && hasBit(c.refusedRow(row), dst)
}

// NumBroken returns the number of pairs a lenient compile recorded as
// broken — from a cut source, or reading a refused tail (0 for strict
// compiles).
func (c *Compiled) NumBroken() int { return c.numBroken }

// Topology implements Router.
func (c *Compiled) Topology() *topo.Topology { return c.inner.Topology() }

// Label implements Router. The compiled view is a transparent
// acceleration, so it reports the inner router's label unchanged and
// reports/goldens are identical either way.
func (c *Compiled) Label() string { return c.inner.Label() }

// Inner returns the router the cache was compiled from.
func (c *Compiled) Inner() Router { return c.inner }

// NumEntries returns the number of cells the arena stores, padding
// included: rows x stored columns x stride, 0 over healthy tables with a
// closed form.
func (c *Compiled) NumEntries() int { return len(c.cells) }

// AppendPath appends the hops of the src->dst flow to buf, head then
// tail (nothing for src == dst): at most Stride()+1 entries, so a loop
// over pairs reuses one buffer and allocates nothing. It returns an error
// for out-of-range indices and one wrapping ErrNoPath for pairs a lenient
// compile found broken.
func (c *Compiled) AppendPath(buf []PathEntry, src, dst int) ([]PathEntry, error) {
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		return buf, fmt.Errorf("route: compiled %s: pair %d->%d out of range [0,%d)", c.Label(), src, dst, c.n)
	}
	if src == dst {
		return buf, nil
	}
	if c.numBroken > 0 && c.Broken(src, dst) {
		return buf, fmt.Errorf("route: compiled %s: pair %d->%d: %w", c.Label(), src, dst, ErrNoPath)
	}
	var arr [16]uint32
	cells := arr[:]
	if c.stride > len(cells) {
		cells = make([]uint32, c.stride)
	}
	return AppendHops(buf, c.head[src], c.Tail(cells, int(c.rowOf[src]), dst)), nil
}

// AppendHops appends a path to buf from its parts as the arena keeps
// them: head (none if NoEntry), then the hop of every non-zero cell of
// tail (Tails' encoding).
func AppendHops(buf []PathEntry, head PathEntry, tail []uint32) []PathEntry {
	if head != NoEntry {
		buf = append(buf, head)
	}
	for _, e := range tail {
		if e != 0 {
			buf = append(buf, PathEntry(e)-1)
		}
	}
	return buf
}

// Tails writes the tail of every pair (rows[i], dsts[i]) to
// cells[i*Stride():][:Stride()]: each hop's PathEntry plus one, in order,
// with 0 for no hop (a shorter tail's slack, wherever it falls). A tail
// is computed from the closed form, or copied from its stored slot. With
// Tail, the same for one pair, it is the cell source of every reader of
// the arena — the HSD replay and the pairs-mode serializer a batch at a
// time, the served-path walker and the job frame a row at a time,
// AppendPath through Tail — and allocates nothing. Rows and destinations
// must be in range, and cells hold len(rows)*Stride(); for a row's only
// source as dst a tail may be anything.
func (c *Compiled) Tails(cells []uint32, rows, dsts []int32) {
	f, stride, stores := c.form, c.stride, c.cols > 0
	for j, d := range dsts {
		dst, row, out := int(d), int(rows[j]), cells[j*stride:j*stride+stride]
		if stores && c.col[dst] >= 0 {
			copy(out, c.slot(row, dst))
			continue
		}
		// The closed form (closed.go): the climb, then the hops down from
		// the turn level.
		m, h, dr := f.m, f.h, f.dsts[dst*f.rec:][:f.rec]
		k := climb(out, dr, f.rows[row*m:][:m], dst)
		for i, e := range dr[m+k*h : m+k*h+h] {
			out[m+i] = e
		}
	}
}

// ClimbWidth returns how many climb levels ClimbKeys keys per rank — the
// levels above a row's — or 0 when the arena does not certify that its
// descents cannot contend: that no switch link is descended towards two
// destinations (Theorem 2). Only healthy tables with a closed form
// certify it, once, when they compile, and only while the arena stores
// no column. Rows at the top level climb nothing and read 0 too.
func (c *Compiled) ClimbWidth() int {
	if c.form == nil || !c.form.exclusive || c.cols > 0 {
		return 0
	}
	return c.form.m
}

// ClimbKeys writes, for an arena whose ClimbWidth w is not 0, the climb
// keys of every rank r placed on end-port hostOf[r]: at climb level i,
// src[i*len(hostOf)+r] as a source and dst[i*len(hostOf)+r] as a
// destination — level by level, so a replay pass over one level reads
// each side's keys from one run. Both hold the index of the end-port's
// ancestor at that level in their high word; the low words hold A' of its
// row and B' of the end-port itself (closed.go). ClimbHop turns a source
// key and a destination key into the climb hop of the flow between the
// two ranks at that level, which is Tails' cell up to the turn: the only
// hops of a tail that two flows between distinct end-ports can share.
// End-ports must be in range, and src and dst hold w*len(hostOf).
func (c *Compiled) ClimbKeys(src, dst []uint64, hostOf []int) {
	f, n := c.form, len(hostOf)
	for r, h := range hostOf {
		rows, dr := f.rows[int(c.rowOf[h])*f.m:][:f.m], f.dsts[h*f.rec:][:f.m]
		for i, cr := range rows {
			anc := uint64(h/int(cr.span)) << 32
			src[i*n+r], dst[i*n+r] = anc|uint64(uint32(cr.a)), anc|uint64(dr[i])
		}
	}
}

// ClimbHop is the climb hop at one level of the flow whose source key
// there is s and whose destination key is d (ClimbKeys): climbing is 1
// while the two end-ports' ancestors at that level differ and 0 once the
// ancestor is common — the flow has turned. cell is A' + B' either way:
// while the flow climbs it is the cell of its up hop, and once it has
// turned it is still the up-port cell of a link climbing from that level
// (closed.go), so a count that adds climbing at cell needs no sink cell.
func ClimbHop(s, d uint64) (cell uint32, climbing int32) {
	return uint32(s + d), int32(-((s ^ d) >> 32) >> 63)
}

// Tail is Tails for one pair: it returns cells[:Stride()].
func (c *Compiled) Tail(cells []uint32, row, dst int) []uint32 {
	r, d := [1]int32{int32(row)}, [1]int32{int32(dst)}
	c.Tails(cells, r[:], d[:])
	return cells[:c.stride]
}

// PackedPath is AppendPath into a fresh slice (nil for src == dst), to keep.
func (c *Compiled) PackedPath(src, dst int) ([]PathEntry, error) {
	path, err := c.AppendPath(make([]PathEntry, 0, c.stride+1), src, dst)
	if len(path) == 0 {
		return nil, err
	}
	return path, nil
}

// Walk implements Router by replaying the cached path.
func (c *Compiled) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	var hops [16]PathEntry
	path, err := c.AppendPath(hops[:0], src, dst)
	for _, e := range path {
		visit(EntryLink(e), EntryUp(e))
	}
	return err
}

// Stride returns the longest tail: a slot's width in the stored arena.
func (c *Compiled) Stride() int { return c.stride }

// Row returns the arena's own factoring of src, for serializers that
// ship head(src) ++ tail(row(src), dst) as stored instead of expanding
// every pair and replay loops that count it in place: the tail row src
// reads (Tail's row) and, when it shares that row (ok), its head entry —
// NoEntry otherwise. src must be in [0, NumHosts).
func (c *Compiled) Row(src int) (row int, head PathEntry, ok bool) {
	return int(c.rowOf[src]), c.head[src], c.head[src] != NoEntry
}

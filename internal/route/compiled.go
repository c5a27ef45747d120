package route

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// row, and the padding after a tail shorter than the arena's stride. It
// is one below the smallest real entry, so a counter array with one sink
// cell in front can count a whole slot, padding included, as cnt[e+1]++.
const NoEntry PathEntry = -1

// Compiled is a path cache over any deterministic Router, immutable once
// built, so every reader is safe for unlimited concurrent use — the
// property the parallel HSD sweeps rely on.
//
// A path is stored as head(src) ++ tail(row(src), dst). Forwarding tables
// are destination-based, so under an LFT every single-uplink host that
// enters the fabric through the same first switch shares everything after
// its first hop: those sources read one tail row, walked from that switch,
// and keep only their own uplink as head (108 rows instead of 1944 on the
// paper's largest cluster). Every other source — any non-LFT router, hosts
// with several uplinks — owns a row walked from the host itself and has
// no head; only the grouping differs. The tails live in one flat []int32
// arena of fixed-stride slots, so a lookup is one multiply and one cache
// line, with no offsets table to chase first. The tree height sets the
// stride — an up*/down* tail is at most 2h hops from a host, 2h-1 from
// its first switch — so every slot's place is known before any path is
// walked and a compile writes the arena in place; shorter tails are
// padded.
//
// Compiling a randomized router (Adaptive) freezes one draw per pair and
// is almost certainly not what you want; compile forwarding tables
// (LFT) or deterministic source-based schemes (SModK) instead.
type Compiled struct {
	inner   Router
	n       int
	rowOf   []int32     // per source: the row it reads
	head    []PathEntry // per source: its first hop, or NoEntry
	rep     []int32     // per row: its lowest-indexed source
	stride  int         // tail (r,d) is entries[(r*n+d)*stride:][:stride], NoEntry-padded
	entries []PathEntry
	// broken, when non-nil, is an n*n bitset of pairs the inner router
	// could not walk — or walked non-minimally — during a lenient
	// compile over a faulted fabric. Every reader returns ErrNoPath for
	// them.
	broken    []uint64
	numBroken int
}

// Compile materializes every path of r in parallel across rows. It
// returns r unchanged when it is already a *Compiled.
func Compile(r Router) (*Compiled, error) { return CompileParallel(r, 0) }

// CompileParallel is Compile with an explicit worker count (<= 0 uses
// GOMAXPROCS). Each worker walks all destinations of a row straight into
// that row's arena slots, which no other worker touches, so no locking is
// needed during the build either.
func CompileParallel(r Router, workers int) (*Compiled, error) {
	return compileParallel(r, workers, false)
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
func CompileLenient(r Router) (*Compiled, error) {
	return compileParallel(r, 0, true)
}

// group assigns every source its row and head. Under an LFT a host with
// a single uplink shares the row of its first switch; a destination its
// table does not send through that uplink is a pair that fails at its
// first hop — an error for a strict compile, a broken pair for a lenient
// one — and no reason to leave the row.
func (c *Compiled) group(lenient bool) error {
	t := c.inner.Topology()
	lft, _ := c.inner.(*LFT)
	rowAt := map[topo.NodeID]int32{} // node a row is walked from -> row
	for src := range c.rowOf {
		host := t.Host(src)
		shared := lft != nil && len(host.Up) == 1
		for dst := 0; shared && dst < c.n; dst++ {
			if lft.Out[host.ID][dst] == host.Up[0] || dst == src {
				continue
			}
			if !lenient { // the walk stops at this entry and says why
				return fmt.Errorf("route: compile %s: %w", c.Label(), lft.Walk(src, dst, func(topo.LinkID, bool) {}))
			}
			c.markBroken(src, dst)
		}
		start := host.ID
		c.head[src] = NoEntry
		if shared {
			start = t.PeerNode(host.Up[0])
			c.head[src] = PackEntry(t.Ports[host.Up[0]].Link, true)
		}
		row, ok := rowAt[start]
		if !ok {
			row = int32(len(c.rep))
			rowAt[start] = row
			c.rep = append(c.rep, int32(src))
		}
		c.rowOf[src] = row
	}
	return nil
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

// minimalTail returns the tail length of a minimal path from row to dst.
func (c *Compiled) minimalTail(g topo.PGFT, row, dst int) int {
	src := int(c.rep[row])
	if c.head[src] == NoEntry {
		return 2 * g.LCALevel(src, dst)
	}
	return 2*max(1, g.LCALevel(src, dst)) - 1
}

func (c *Compiled) markBroken(src, dst int) {
	if c.broken == nil {
		c.broken = make([]uint64, (c.n*c.n+63)/64)
	}
	i := src*c.n + dst
	if c.broken[i/64]&(1<<(i%64)) == 0 {
		c.broken[i/64] |= 1 << (i % 64)
		c.numBroken++
	}
}

// filler returns the one slot-fill primitive compiles and Repatch share:
// fill(row, dst) walks row's tail towards dst through r straight into its
// arena slot and pads the rest. A walk that fails, a tail longer than the
// stride (no up*/down* path is) and — leniently — a delivered but
// non-minimal one are refused: the slot is left empty and the error says
// why, for the caller to break the row's readers (breakRefused) rather
// than serve a detour that silently breaks the minimality guarantee. One
// filler serves one goroutine.
func (c *Compiled) filler(r Router, lenient bool) func(row, dst int) error {
	g := r.Topology().Spec
	var slot []PathEntry
	hops := 0
	visit := func(l topo.LinkID, up bool) {
		if hops < len(slot) {
			slot[hops] = PackEntry(l, up)
		}
		hops++
	}
	return func(row, dst int) error {
		slot, hops = c.entries[(row*c.n+dst)*c.stride:][:c.stride], 0
		err := c.walkRow(r, row, dst, visit)
		if err == nil && hops > len(slot) {
			err = fmt.Errorf("route: %s: %d-hop tail towards %d exceeds the up*/down* bound %d", r.Label(), hops, dst, len(slot))
		} else if err == nil && lenient && hops != c.minimalTail(g, row, dst) {
			err = ErrNoPath // delivered, but by a detour: no usable path
		}
		if err != nil {
			hops = 0
		}
		for i := hops; i < len(slot); i++ {
			slot[i] = NoEntry
		}
		return err
	}
}

// breakRefused breaks every pair reading a refused slot: refused lists,
// per row, the destinations fill turned down.
func (c *Compiled) breakRefused(refused [][]int32) {
	for src, row := range c.rowOf {
		for _, dst := range refused[row] {
			if int(dst) != src {
				c.markBroken(src, int(dst))
			}
		}
	}
}

func compileParallel(r Router, workers int, lenient bool) (*Compiled, error) {
	if c, ok := r.(*Compiled); ok {
		return c, nil
	}
	t := r.Topology()
	n := t.NumHosts()
	c := &Compiled{inner: r, n: n, rowOf: make([]int32, n), head: make([]PathEntry, n)}
	if err := c.group(lenient); err != nil {
		return nil, err
	}
	rows := len(c.rep)
	c.stride = 2 * t.Spec.H
	if c.head[0] != NoEntry { // every host has as many uplinks: all rows shared, or none
		c.stride--
	}
	if total := rows * n * c.stride; total > math.MaxInt32 {
		return nil, fmt.Errorf("route: compile %s: %d path entries overflow the int32 arena bound", r.Label(), total)
	}
	c.entries = make([]PathEntry, rows*n*c.stride)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	refused := make([][]int32, rows)
	readers := make([]int, rows) // per-row source count
	for _, row := range c.rowOf {
		readers[row]++
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // rows handed out so far
		failed   atomic.Bool  // a strict compile hit an error: stop
		firstErr error        // written by whoever sets failed first
	)
	for w := 0; w < min(workers, rows); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := c.filler(r, lenient)
			for !failed.Load() {
				row := int(next.Add(1)) - 1
				if row >= rows {
					return
				}
				own := -1 // the destination no pair reads: a row's only source
				if readers[row] == 1 {
					own = int(c.rep[row])
				}
				for dst := 0; dst < n; dst++ {
					err := fill(row, dst)
					if err == nil || dst == own {
						continue
					}
					if !lenient {
						if failed.CompareAndSwap(false, true) {
							firstErr = fmt.Errorf("route: compile %s: %w", r.Label(), err)
						}
						return
					}
					refused[row] = append(refused[row], int32(dst))
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	c.breakRefused(refused)
	return c, nil
}

// Broken reports whether a leniently compiled pair had no usable
// (delivered and minimal) path.
// Out-of-range pairs report false; the path readers still reject them.
func (c *Compiled) Broken(src, dst int) bool {
	if c.broken == nil || src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		return false
	}
	i := src*c.n + dst
	return c.broken[i/64]&(1<<(i%64)) != 0
}

// NumBroken returns the number of pairs a lenient compile recorded as
// broken — unreachable or served only by a non-minimal path (0 for
// strict compiles).
func (c *Compiled) NumBroken() int { return c.numBroken }

// Topology implements Router.
func (c *Compiled) Topology() *topo.Topology { return c.inner.Topology() }

// Label implements Router. The compiled view is a transparent
// acceleration, so it reports the inner router's label unchanged and
// reports/goldens are identical either way.
func (c *Compiled) Label() string { return c.inner.Label() }

// Inner returns the router the cache was compiled from.
func (c *Compiled) Inner() Router { return c.inner }

// NumEntries returns the number of PathEntry slots the arena stores,
// padding included.
func (c *Compiled) NumEntries() int { return len(c.entries) }

// SplitPath returns the hops of the src->dst flow as two views into
// shared storage, head then tail (both empty for src == dst), without
// allocating: callers must not modify them. It returns an error for
// out-of-range indices and one wrapping ErrNoPath for pairs a lenient
// compile found broken.
func (c *Compiled) SplitPath(src, dst int) (head, tail []PathEntry, err error) {
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		return nil, nil, fmt.Errorf("route: compiled %s: pair %d->%d out of range [0,%d)", c.Label(), src, dst, c.n)
	}
	if src == dst {
		return nil, nil, nil
	}
	if c.broken != nil && c.Broken(src, dst) {
		return nil, nil, fmt.Errorf("route: compiled %s: pair %d->%d: %w", c.Label(), src, dst, ErrNoPath)
	}
	if c.head[src] != NoEntry {
		head = c.head[src : src+1]
	}
	return head, c.RowTail(int(c.rowOf[src]), dst), nil
}

// PackedPath is SplitPath materialized into one slice, for callers that
// want a path to keep or compare; it allocates whenever the pair has a
// head. Hot loops read the SplitPath views instead.
func (c *Compiled) PackedPath(src, dst int) ([]PathEntry, error) {
	head, tail, err := c.SplitPath(src, dst)
	if len(head) == 0 {
		return tail, err
	}
	return append(append(make([]PathEntry, 0, len(head)+len(tail)), head...), tail...), nil
}

// Walk implements Router by replaying the cached path.
func (c *Compiled) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	head, tail, err := c.SplitPath(src, dst)
	if err != nil {
		return err
	}
	for _, part := range [2][]PathEntry{head, tail} {
		for _, e := range part {
			visit(EntryLink(e), EntryUp(e))
		}
	}
	return nil
}

// Stride returns the slot width of the arena: no tail is longer.
func (c *Compiled) Stride() int { return c.stride }

// Row returns the arena's own factoring of src, for serializers that
// ship head(src) ++ tail(row(src), dst) as stored instead of expanding
// every pair and replay loops that count it in place: the tail row src
// reads and, when it shares that row (ok), its head entry — NoEntry
// otherwise. src must be in [0, NumHosts).
func (c *Compiled) Row(src int) (row int, head PathEntry, ok bool) {
	return int(c.rowOf[src]), c.head[src], c.head[src] != NoEntry
}

// RowTail returns the stored tail of row towards dst as a view into the
// arena, padding trimmed — empty for a slot the compile refused (every
// pair reading it is Broken) and for the destination only the row's own
// source would read. Callers must not modify it.
func (c *Compiled) RowTail(row, dst int) []PathEntry {
	tail := c.Slot(row, dst)
	for len(tail) > 0 && tail[len(tail)-1] == NoEntry {
		tail = tail[:len(tail)-1]
	}
	return tail
}

// Slot is RowTail untrimmed: the whole fixed-stride slot, NoEntry padding
// included, for loops that would rather count the padding into a sink
// than branch on it. It does not say whether a pair reading the slot is
// Broken. Callers must not modify it.
func (c *Compiled) Slot(row, dst int) []PathEntry {
	i := (row*c.n + dst) * c.stride
	return c.entries[i : i+c.stride]
}

// Narrow is a replay copy of an arena's tail slots at half their width:
// a cell is its entry plus one in 16 bits, so NoEntry is 0 and a counter
// array with one sink cell in front is indexed by the cell itself. It
// exists for the cache: 2 MB instead of 4 at 1944 hosts. The arena itself
// stays 32 bits wide because its readers are handed views of it.
type Narrow struct {
	n, stride int
	cells     []uint16
}

// Narrow returns the 16-bit copy of the arena's slots, or nil when the
// fabric has too many links for an entry plus one to fit a cell.
func (c *Compiled) Narrow() *Narrow {
	if 2*len(c.Topology().Links) >= 1<<16 {
		return nil
	}
	w := &Narrow{n: c.n, stride: c.stride, cells: make([]uint16, len(c.entries))}
	for i, e := range c.entries {
		w.cells[i] = uint16(e + 1)
	}
	return w
}

// Slot is (*Compiled).Slot over the copy.
func (w *Narrow) Slot(row, dst int) []uint16 {
	i := (row*w.n + dst) * w.stride
	return w.cells[i : i+w.stride]
}

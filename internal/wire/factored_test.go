package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestExpand pins the pair list a factored message stands for: ordered
// pairs source-major in Hosts order, head then tail, broken pairs
// present but not OK, every Hops a capped window of the one hop slab.
func TestExpand(t *testing.T) {
	got := exampleFactored().Expand()
	want := &RouteSetResp{Epoch: 42, Engine: "dmodk", Routing: "d-mod-k", Pairs: []PairRoute{
		{Src: 4, Dst: 5, OK: true, Hops: []uint32{9, 10}},
		{Src: 4, Dst: 9, OK: true, Hops: []uint32{9, 131, 260, 18}},
		{Src: 5, Dst: 4, OK: true, Hops: []uint32{11, 8}},
		{Src: 5, Dst: 9},
		{Src: 9, Dst: 4, OK: true, Hops: []uint32{19, 261, 8}},
		{Src: 9, Dst: 5, OK: true, Hops: []uint32{19, 261, 10}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expanded\n got %+v\nwant %+v", got, want)
	}
	for _, p := range got.Pairs {
		if cap(p.Hops) != len(p.Hops) {
			t.Fatalf("%d->%d: hops window has spare capacity %d; an append would write into its neighbour", p.Src, p.Dst, cap(p.Hops)-len(p.Hops))
		}
	}
	for _, m := range []*RouteSetFactored{{Epoch: 7}, {Epoch: 7, Rows: 1, Hosts: []FactoredHost{{Host: 3, Head: NoHead}}, TailOff: []uint32{0, 0}}} {
		if rs := m.Expand(); rs.Epoch != 7 || len(rs.Pairs) != 0 {
			t.Fatalf("%d-host job expands to %+v", len(m.Hosts), rs)
		}
	}
}

// referenceExpand is the pair list a factored message stands for, built
// pair by pair with no slab: pair (i, j) is Hosts[i].Head (unless
// NoHead) then tail (Hosts[i].Row, j), or not OK when i*n+j is listed
// broken.
func referenceExpand(m *RouteSetFactored) *RouteSetResp {
	n := len(m.Hosts)
	broken := map[uint64]bool{}
	for _, b := range m.Broken {
		broken[b] = true
	}
	rs := &RouteSetResp{Epoch: m.Epoch, Engine: m.Engine, Routing: m.Routing, Pairs: []PairRoute{}}
	for i, h := range m.Hosts {
		for j, to := range m.Hosts {
			if i == j {
				continue
			}
			p := PairRoute{Src: h.Host, Dst: to.Host}
			if !broken[uint64(i*n+j)] {
				t := int(h.Row)*n + j
				p.OK, p.Hops = true, []uint32{} // served: a hop list, even an empty one
				if h.Head != NoHead {
					p.Hops = append(p.Hops, h.Head)
				}
				p.Hops = append(p.Hops, m.Tails[m.TailOff[t]:m.TailOff[t+1]]...)
			}
			rs.Pairs = append(rs.Pairs, p)
		}
	}
	return rs
}

// randomFactored is a seeded n-host message on up to n rows: some hosts
// without a head, tails of 0 to stride entries, and broken pairs at
// every even source's first destination, every third source's last,
// the first and last pair of every even chunk of Expand's sources, and
// at random.
func randomFactored(rng *rand.Rand, n int) *RouteSetFactored {
	m := &RouteSetFactored{Epoch: uint64(n), Engine: "dmodk", Routing: "d-mod-k", Stride: 3, Rows: uint32(1 + rng.Intn(n)), TailOff: []uint32{0}}
	for h := 0; h < n; h++ {
		head := uint32(rng.Intn(1000))
		if rng.Intn(3) == 0 {
			head = NoHead
		}
		m.Hosts = append(m.Hosts, FactoredHost{Host: uint32(7 * h), Row: uint32(rng.Intn(int(m.Rows))), Head: head})
	}
	for t := 0; t < int(m.Rows)*n; t++ {
		for k := rng.Intn(int(m.Stride) + 1); k > 0; k-- {
			m.Tails = append(m.Tails, uint32(rng.Intn(1000)))
		}
		m.TailOff = append(m.TailOff, uint32(len(m.Tails)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			first, last := j == 0 || i == 0 && j == 1, j == n-1 || i == n-1 && j == n-2
			chunkEdge := (i/expandChunk)%2 == 0 &&
				(i%expandChunk == 0 && first || (i%expandChunk == expandChunk-1 || i == n-1) && last)
			if i != j && (first && i%2 == 0 || last && i%3 == 0 || chunkEdge || rng.Intn(9) == 0) {
				m.Broken = append(m.Broken, uint64(i*n+j))
			}
		}
	}
	return m
}

// TestExpandMatchesReference holds Expand to the pair-by-pair reference
// on seeded messages, each after a round trip through the decoder, at
// one, two and four workers: jobs of 1 and 2 hosts, one short of a
// chunk of sources, a chunk and one past it, a few chunks and 324
// hosts. Every message has headless hosts and broken pairs on the first
// and last pair of some chunks. The hops are one slab in pair order.
func TestExpandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var ms []*RouteSetFactored
	for _, n := range []int{1, 2, 2, 3, 5, expandChunk - 1, expandChunk, expandChunk + 1, 24, 40, 324} {
		ms = append(ms, randomFactored(rng, n))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, m := range ms {
			n := len(m.Hosts)
			dec, err := DecodePayload(TRouteSetFactored, m.appendPayload(nil))
			if err != nil {
				t.Fatalf("%d hosts: %v", n, err)
			}
			got, want := dec.(*RouteSetFactored).Expand(), referenceExpand(m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d, %d hosts (%d broken): Expand differs from the pair-by-pair reference\n got %+v\nwant %+v", procs, n, len(m.Broken), got, want)
			}
			checkOneHopSlab(t, fmt.Sprintf("GOMAXPROCS %d, %d hosts", procs, n), m, got)
		}
	}
}

// checkOneHopSlab: the served pairs' hops follow each other in pair
// order, each a capped window, all inside a span no longer than every
// source's head and row of tails — one slab, filled in pair order.
func checkOneHopSlab(t *testing.T, what string, m *RouteSetFactored, rs *RouteSetResp) {
	t.Helper()
	n, slab := len(m.Hosts), uintptr(0)
	for _, h := range m.Hosts {
		slab += uintptr(m.TailOff[int(h.Row+1)*n] - m.TailOff[int(h.Row)*n])
		if h.Head != NoHead {
			slab += uintptr(n)
		}
	}
	var first, end uintptr
	for _, p := range rs.Pairs {
		if len(p.Hops) == 0 {
			continue
		}
		at := uintptr(unsafe.Pointer(&p.Hops[0]))
		if first == 0 {
			first = at
		}
		if at < end || cap(p.Hops) != len(p.Hops) {
			t.Fatalf("%s: %d->%d: hops overlap the pair before or have spare capacity", what, p.Src, p.Dst)
		}
		end = at + uintptr(len(p.Hops))*unsafe.Sizeof(p.Hops[0])
	}
	if end-first > slab*unsafe.Sizeof(uint32(0)) {
		t.Fatalf("%s: hops span %d bytes, more than the %d hops of one slab", what, end-first, slab)
	}
}

// TestPatchedSetsLetGoOfTheColdSlab pins the retention bound of a
// patched list: once an ExpandFrom chain has refilled every column, no
// pair of the latest list points into the first expansion's hop slab,
// so that slab is garbage as soon as the lists before are.
func TestPatchedSetsLetGoOfTheColdSlab(t *testing.T) {
	const n = 24
	prev := job24(1)
	cold := prev.Expand()
	slab := map[*uint32]bool{}
	for _, p := range cold.Pairs {
		for i := range p.Hops {
			slab[&p.Hops[i]] = true
		}
	}
	set, refilled := cold, make([]bool, n)
	for epoch := uint64(2); epoch < 200 && slices.Contains(refilled, false); epoch++ {
		if epoch%20 == 0 || epoch%20 == 1 { // the shape changes: a full Expand
			continue
		}
		m := job24(epoch)
		next, _ := checkExpandFrom(t, fmt.Sprintf("epoch %d", epoch), m, prev, set)
		for j := 0; j < n; j++ {
			k := j - 1 // pair (0, j)
			if j == 0 {
				k = 1 // pair (1, 0)
			}
			if len(next.Pairs[k].Hops) > 0 && len(set.Pairs[k].Hops) > 0 && &next.Pairs[k].Hops[0] != &set.Pairs[k].Hops[0] {
				refilled[j] = true
			}
		}
		prev, set = m, next
	}
	if slices.Contains(refilled, false) {
		t.Fatalf("the chain refilled only some columns: %v", refilled)
	}
	for _, p := range set.Pairs {
		for i := range p.Hops {
			if slab[&p.Hops[i]] {
				t.Fatalf("%d->%d still reads the first expansion's hop slab after every column was refilled", p.Src, p.Dst)
			}
		}
	}
}

// cloneSet deep-copies a route set: what it held when it was handed out.
func cloneSet(rs *RouteSetResp) *RouteSetResp {
	c := *rs
	c.Pairs = slices.Clone(rs.Pairs)
	for i, p := range c.Pairs {
		c.Pairs[i].Hops = slices.Clone(p.Hops)
	}
	return &c
}

// checkExpandFrom holds one patched expansion to the contract: entry
// for entry what Expand makes of the message, the set it started from
// left exactly as it was, and hop memory of its own in every column it
// refilled. It returns how many destination columns share their hops
// with prevSet.
func checkExpandFrom(t testing.TB, what string, m, prev *RouteSetFactored, prevSet *RouteSetResp) (got *RouteSetResp, shared int) {
	t.Helper()
	before := cloneSet(prevSet)
	got = m.ExpandFrom(prev, prevSet)
	if want := m.Expand(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: patched expansion differs from Expand\n got %+v\nwant %+v", what, got, want)
	}
	if !reflect.DeepEqual(prevSet, before) {
		t.Fatalf("%s: the set handed out earlier was written to", what)
	}
	n := len(m.Hosts)
	if len(prevSet.Pairs) != len(got.Pairs) {
		return got, 0
	}
	for j := 0; j < n; j++ {
		same, other := 0, 0
		for i := 0; i < n; i++ {
			k := i*(n-1) + j
			if j > i {
				k--
			}
			if i == j || len(got.Pairs[k].Hops) == 0 || len(prevSet.Pairs[k].Hops) == 0 {
				continue
			}
			if &got.Pairs[k].Hops[0] == &prevSet.Pairs[k].Hops[0] {
				same++
			} else {
				other++
			}
		}
		if same > 0 && other > 0 {
			t.Fatalf("%s: column %d is half shared (%d pairs) and half refilled (%d)", what, j, same, other)
		}
		if same > 0 {
			shared++
		}
	}
	for _, p := range got.Pairs {
		if cap(p.Hops) != len(p.Hops) {
			t.Fatalf("%s: %d->%d: hops window has spare capacity", what, p.Src, p.Dst)
		}
	}
	return got, shared
}

// TestExpandFrom: the patched expansion refills exactly the columns
// whose tails or broken pairs moved, shares the rest with the set it
// started from, and falls back to Expand on any difference in shape —
// always ending at what Expand would have built.
func TestExpandFrom(t *testing.T) {
	base := exampleFactored()
	baseSet := base.Expand()
	edit := func(f func(m *RouteSetFactored)) *RouteSetFactored {
		m := exampleFactored()
		m.Epoch++
		f(m)
		return m
	}
	for name, tc := range map[string]struct {
		m      *RouteSetFactored
		shared int // columns whose hop memory is prevSet's
	}{
		"nothing moved":        {edit(func(m *RouteSetFactored) {}), 3},
		"older epoch":          {edit(func(m *RouteSetFactored) { m.Epoch = 7; m.Tails[0] = 12 }), 2},
		"one tail moved":       {edit(func(m *RouteSetFactored) { m.Tails[3] = 262 }), 2}, // row 0 -> 9
		"a tail got shorter":   {edit(func(m *RouteSetFactored) { m.Tails = m.Tails[:10]; m.TailOff[5], m.TailOff[6] = 10, 10 }), 2},
		"pair repaired":        {edit(func(m *RouteSetFactored) { m.Broken = nil }), 2},
		"another pair broke":   {edit(func(m *RouteSetFactored) { m.Broken = []uint64{1, 5} }), 2},    // 4->5 too
		"broken pair moved":    {edit(func(m *RouteSetFactored) { m.Broken = []uint64{2*3 + 0} }), 1}, // 9->4, not 5->9
		"head changed":         {edit(func(m *RouteSetFactored) { m.Hosts[0].Head = 13 }), 0},         // shape: Expand
		"host replaced":        {edit(func(m *RouteSetFactored) { m.Hosts[2].Host = 10 }), 0},         // shape
		"stride changed":       {edit(func(m *RouteSetFactored) { m.Stride = 4 }), 0},                 // shape
		"rows regrouped":       {edit(func(m *RouteSetFactored) { m.Hosts[1].Row = 1 }), 0},           // shape
		"host dropped":         {&RouteSetFactored{Epoch: 43, Rows: 1, Hosts: []FactoredHost{{Host: 3, Head: NoHead}}, TailOff: []uint32{0, 0}}, 0},
		"no hosts at all":      {&RouteSetFactored{Epoch: 43}, 0},
		"hosts added (bigger)": {job24(1), 0},
	} {
		if _, shared := checkExpandFrom(t, name, tc.m, base, baseSet); shared != tc.shared {
			t.Errorf("%s: %d of 3 columns share hop memory with the previous set, want %d", name, shared, tc.shared)
		}
	}
	// From an empty set, and from a set that is not prev's expansion at
	// all (wrong length): Expand.
	empty := &RouteSetFactored{Epoch: 1}
	checkExpandFrom(t, "from no hosts", base, empty, empty.Expand())
	checkExpandFrom(t, "from a foreign set", edit(func(m *RouteSetFactored) {}), base, &RouteSetResp{Epoch: 42})

	// A chain: each epoch patched from the one before, tails and broken
	// pairs coming and going, the shape changing now and then.
	prev := job24(0)
	set := prev.Expand()
	for epoch := uint64(1); epoch <= 60; epoch++ {
		m := job24(epoch)
		next, shared := checkExpandFrom(t, fmt.Sprintf("chain epoch %d", epoch), m, prev, set)
		// With no host down or swapped in this epoch or the last, only
		// the rerouted columns of the two are refilled.
		if epoch%3 == 2 && epoch%20 > 1 && (shared < 18 || shared == 24) {
			t.Fatalf("chain epoch %d: %d of 24 columns shared", epoch, shared)
		}
		prev, set = m, next
	}
}

// job24 is a 24-host job on 4 rows whose routes drift with the epoch:
// three columns' tails are rerouted, every third epoch one host loses
// its pairs, every twentieth the job's last host is swapped out.
func job24(epoch uint64) *RouteSetFactored {
	const n, rows = 24, 4
	m := &RouteSetFactored{Epoch: epoch, Engine: "dmodk", Routing: "d-mod-k", Stride: 3, Rows: rows, TailOff: []uint32{0}}
	for h := 0; h < n; h++ {
		m.Hosts = append(m.Hosts, FactoredHost{Host: uint32(h), Row: uint32(h / 6), Head: uint32(2*h + 1)})
	}
	if epoch%20 == 0 {
		m.Hosts[n-1].Host = 99
	}
	moved := func(j int) bool {
		return epoch > 0 && (j == int(epoch%n) || j == int(epoch*7%n) || j == int(epoch*11%n))
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			switch {
			case j/6 == r:
				m.Tails = append(m.Tails, uint32(2*j))
			case moved(j) && r == int(epoch%rows):
				m.Tails = append(m.Tails, uint32(100+2*r+8*int(epoch%3)), uint32(200+2*j), uint32(2*j))
			default:
				m.Tails = append(m.Tails, uint32(100+2*r), uint32(200+2*j), uint32(2*j))
			}
			m.TailOff = append(m.TailOff, uint32(len(m.Tails)))
		}
	}
	if dead := int(epoch * 5 % n); epoch%3 == 0 { // its uplink is gone: nothing from it, nothing to it
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && (i == dead || j == dead) {
					m.Broken = append(m.Broken, uint64(i*n+j))
				}
			}
		}
	}
	return m
}

// factoredPayload encodes the example with one field group replaced, for
// the rejection table: the encoder trusts its caller, so hostile shapes
// are hand-assembled.
func factoredPayload(edit func(m *RouteSetFactored)) []byte {
	m := exampleFactored()
	edit(m)
	return m.appendPayload(nil)
}

func TestFactoredDecodeRejects(t *testing.T) {
	ok := exampleFactored().appendPayload(nil)
	if _, err := DecodePayload(TRouteSetFactored, ok); err != nil {
		t.Fatalf("the unedited example is refused: %v", err)
	}
	cases := map[string]struct {
		payload []byte
		want    error
	}{
		"row >= rows":             {factoredPayload(func(m *RouteSetFactored) { m.Hosts[2].Row = 2 }), ErrMalformed},
		"rows > hosts":            {factoredPayload(func(m *RouteSetFactored) { m.Rows = 4 }), ErrMalformed},
		"tail longer than stride": {factoredPayload(func(m *RouteSetFactored) { m.Stride = 2 }), ErrMalformed},
		"stride above the bound":  {factoredPayload(func(m *RouteSetFactored) { m.Stride = MaxStride + 1 }), ErrMalformed},
		"more hosts than a job may have": {factoredPayload(func(m *RouteSetFactored) {
			m.Hosts = make([]FactoredHost, MaxJobHosts+1)
			m.TailOff = make([]uint32, 2*len(m.Hosts)+1)
		}), ErrMalformed},
		"broken index >= n*n":    {factoredPayload(func(m *RouteSetFactored) { m.Broken = []uint64{9} }), ErrMalformed},
		"broken on the diagonal": {factoredPayload(func(m *RouteSetFactored) { m.Broken = []uint64{4} }), ErrMalformed},
		"broken not increasing":  {factoredPayload(func(m *RouteSetFactored) { m.Broken = []uint64{5, 5} }), ErrMalformed},
		"broken descending":      {factoredPayload(func(m *RouteSetFactored) { m.Broken = []uint64{5, 3} }), ErrMalformed},
		"broken without hosts": {factoredPayload(func(m *RouteSetFactored) {
			*m = RouteSetFactored{Broken: []uint64{0}}
		}), ErrMalformed},
		"fewer tails than rows x hosts": {factoredPayload(func(m *RouteSetFactored) { m.TailOff = m.TailOff[:6] }), ErrTruncated},
		"trailing bytes":                {append(append([]byte(nil), ok...), 0), ErrTrailing},
		"cut mid-tail":                  {ok[:len(ok)-6], ErrTruncated},
	}
	// Counts that run past the bytes present must fail before anything
	// is sized from them.
	head := binary.AppendUvarint(nil, 1)
	head = appendString(appendString(head, "e"), "r")
	cases["host count past the payload"] = struct {
		payload []byte
		want    error
	}{binary.AppendUvarint(append([]byte(nil), head...), 1<<30), ErrTruncated}
	grid := binary.AppendUvarint(append([]byte(nil), head...), 2) // 2 hosts
	grid = append(grid, 2, 3)                                     // 2 rows, stride 3
	grid = append(grid, 0, 0, 0, 1, 1, 0)                         // the hosts
	cases["tail grid past the payload"] = struct {
		payload []byte
		want    error
	}{append(grid, 0, 0, 0), ErrTruncated} // 3 of 4 tails
	cases["broken count past the payload"] = struct {
		payload []byte
		want    error
	}{append(grid, 0, 0, 0, 0, 0x80, 0x80, 0x04), ErrTruncated}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodePayload(TRouteSetFactored, tc.payload); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// job324 is a 324-host job in the shape the daemon ships: 18 rows of 18
// hosts, every host behind its own uplink, three-entry tails.
func job324() *RouteSetFactored {
	const n, rows, stride = 324, 18, 3
	m := &RouteSetFactored{Epoch: 9, Engine: "dmodk", Routing: "d-mod-k", Stride: stride, Rows: rows, TailOff: []uint32{0}}
	for h := 0; h < n; h++ {
		m.Hosts = append(m.Hosts, FactoredHost{Host: uint32(h), Row: uint32(h / 18), Head: uint32(2*h + 1)})
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			if j/18 == r {
				m.Tails = append(m.Tails, uint32(2*j))
			} else {
				m.Tails = append(m.Tails, uint32(700+2*r), uint32(1100+2*j), uint32(2*j))
			}
			m.TailOff = append(m.TailOff, uint32(len(m.Tails)))
		}
	}
	return m
}

// TestFactoredAllocs holds a whole-job refetch to what it is made of:
// the decode to a fixed handful of allocations, the first expansion to
// one pair slab, one hop slab and a few per worker, a patched expansion
// to one hop slab per column that moved — and the pair-list decoder to
// one hops slab however many pairs arrive.
func TestFactoredAllocs(t *testing.T) {
	// A collection triggered by the megabyte slabs below lets runtime
	// housekeeping allocate inside the measured function.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	frame := EncodeFrame(job324())
	if len(frame) > 100_000 {
		t.Fatalf("324-host job frame is %d bytes, want < 100 KB", len(frame))
	}
	var fm *RouteSetFactored
	allocs := testing.AllocsPerRun(10, func() {
		m, err := DecodePayload(TRouteSetFactored, frame[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		fm = m.(*RouteSetFactored)
	})
	if allocs > 8 {
		t.Errorf("decode of a 324-host job: %.0f allocations, want <= 8", allocs)
	}
	var rs *RouteSetResp
	// Four are the set, its pairs, its hops and the per-source offset
	// table; nine are the hop slab's goroutine and channel (three), and
	// par.Do's shared state and the fill's closure (six); one per worker
	// is its goroutine's closure. None grows with the job. AllocsPerRun
	// measures at GOMAXPROCS 1, so par.Do runs one worker.
	const slabs, fanOut, perWorker = 4, 9, 1
	allocs = testing.AllocsPerRun(10, func() { rs = fm.Expand() })
	if allocs > slabs+fanOut+perWorker {
		t.Errorf("expansion of a 324-host job: %.0f allocations, want <= %d + %d + %d per worker", allocs, slabs, fanOut, perWorker)
	}
	if len(rs.Pairs) != 324*323 || len(rs.Pairs[0].Hops) != 2 || len(rs.Pairs[322].Hops) != 4 {
		t.Fatalf("expanded %d pairs, first %+v", len(rs.Pairs), rs.Pairs[0])
	}
	// One link fault's worth: a tail moved in each of 18 columns.
	next := job324()
	next.Epoch++
	for c := 0; c < 18; c++ {
		next.Tails[next.TailOff[5*324+17*c]] += 2
	}
	var patched *RouteSetResp
	allocs = testing.AllocsPerRun(10, func() { patched = next.ExpandFrom(fm, rs) })
	if allocs > 18+4 {
		t.Errorf("patched expansion with 18 columns moved: %.0f allocations, want <= 18 + 4", allocs)
	}
	if _, shared := checkExpandFrom(t, "324 hosts, 18 columns moved", next, fm, rs); shared != 324-18 || patched.Epoch != next.Epoch {
		t.Fatalf("%d columns shared with the previous set, want %d", shared, 324-18)
	}

	pairs := EncodeFrame(&RouteSetResp{Epoch: 9, Engine: "dmodk", Routing: "d-mod-k", Pairs: rs.Pairs[:324]})
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := DecodePayload(TRouteSetResp, pairs[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("decode of a 324-pair answer: %.0f allocations, want <= 6", allocs)
	}
	whole := EncodeFrame(rs)
	allocs = testing.AllocsPerRun(3, func() {
		if _, err := ReadMessage(bytes.NewReader(whole)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("read + decode of the %d-pair list: %.0f allocations, want <= 8", len(rs.Pairs), allocs)
	}
	m, err := ReadMessage(bytes.NewReader(whole))
	if err != nil || !reflect.DeepEqual(m, rs) {
		t.Fatalf("pair list does not survive the one-slab decoder (err %v)", err)
	}
	for _, p := range m.(*RouteSetResp).Pairs {
		if cap(p.Hops) != len(p.Hops) {
			t.Fatalf("%d->%d: decoded hops window has spare capacity", p.Src, p.Dst)
		}
	}
}

// TestReadFrameReservesAsBytesArrive: a peer that sends eight header
// bytes claiming MaxPayload and then stalls must not make the reader
// reserve what it claims — the length field is hearsay until the bytes
// show up — and its hangup is a truncation, not a clean EOF. A
// connection's Reader that already holds scratch is held to the same.
func TestReadFrameReservesAsBytesArrive(t *testing.T) {
	for name, warm := range map[string]bool{"one-shot": false, "reader with scratch": true} {
		t.Run(name, func(t *testing.T) {
			srv, cli := net.Pipe()
			defer srv.Close()
			fr := NewReader(srv)
			if warm {
				go cli.Write(EncodeFrame(&EpochResp{Epoch: 1, Engine: "dmodk"}))
				if _, _, err := fr.ReadFrame(); err != nil || cap(fr.buf) == 0 {
					t.Fatalf("warm-up frame: err %v, %d bytes of scratch kept", err, cap(fr.buf))
				}
			}
			head := []byte{Magic0, Magic1, Version, byte(TRouteSetResp), 0, 0, 0, 0}
			binary.LittleEndian.PutUint32(head[4:], MaxPayload)
			done := make(chan error, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			go func() {
				_, _, err := fr.ReadFrame()
				done <- err
			}()
			if _, err := cli.Write(head); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Write(make([]byte, 1000)); err != nil { // the reader is now past the header
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("header-only peer made the reader allocate %d bytes, want < 1 MiB", got)
			}
			cli.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("hangup mid-payload: err = %v, want ErrTruncated", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ReadFrame still blocked after the peer hung up")
			}
		})
	}

	// A large frame that does arrive is read whole, through the growth
	// steps, from a reader that cannot say how much it holds.
	big := EncodeFrame(&OrderResp{Epoch: 1, Label: "x", HostOf: make([]uint32, 300_000)})
	ty, payload, err := ReadFrame(io.MultiReader(bytes.NewReader(big[:70_001]), bytes.NewReader(big[70_001:])))
	if err != nil || ty != TOrderResp || !bytes.Equal(payload, big[HeaderSize:]) {
		t.Fatalf("300 KB frame over a chunked reader: type %d, %d bytes, err %v", ty, len(payload), err)
	}
}

// TestReaderScratch: a connection's Reader reads frame after frame into
// one buffer, what it decoded is not changed by the next read, and a
// frame past MaxScratch is read but not kept — the buffer after it is a
// new, small one.
func TestReaderScratch(t *testing.T) {
	small := func(epoch uint64) []byte {
		return EncodeFrame(&RouteSetResp{Epoch: epoch, Engine: "dmodk", Routing: "d-mod-k",
			Pairs: []PairRoute{{Src: 1, Dst: 2, OK: true, Hops: []uint32{uint32(epoch), 4}}, {Src: 3, Dst: 4}}})
	}
	job := EncodeFrame(&OrderResp{Epoch: 3, Label: "x", HostOf: make([]uint32, 40_000)}) // ~40 KB
	if len(job) <= MaxScratch || len(job) > 64<<10 {
		t.Fatalf("the over-cap frame is %d bytes; want one first reservation past MaxScratch", len(job))
	}
	var stream bytes.Buffer
	for _, f := range [][]byte{small(1), small(2), job, small(4)} {
		stream.Write(f)
	}
	fr := NewReader(struct{ io.Reader }{&stream}) // a reader that cannot say how much it holds

	m1, err := fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	first := &fr.buf[:1][0]
	m2, err := fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if &fr.buf[:1][0] != first {
		t.Error("the second frame of the same size was read into a new buffer")
	}
	if !equalMessages(m1, mustDecode(t, small(1))) || !equalMessages(m2, mustDecode(t, small(2))) {
		t.Errorf("a decoded message changed under the next read: %+v, %+v", m1, m2)
	}
	if _, payload, err := fr.ReadFrame(); err != nil || !bytes.Equal(payload, job[HeaderSize:]) {
		t.Fatalf("over-cap frame: %d bytes, err %v", len(payload), err)
	}
	if fr.buf != nil {
		t.Errorf("%d bytes of scratch kept after a %d-byte frame; the cap is %d", cap(fr.buf), len(job), MaxScratch)
	}
	if _, err := fr.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) == 0 || cap(fr.buf) > MaxScratch {
		t.Errorf("scratch after the next small frame holds %d bytes", cap(fr.buf))
	}
}

func mustDecode(t *testing.T, frame []byte) Message {
	t.Helper()
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

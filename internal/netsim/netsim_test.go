package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fattree/internal/des"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// fig1 is the 16-host PGFT of Figure 1 / Figure 4(b).
func fig1LFT() *route.LFT {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	return route.DModK(tp)
}

func TestCutThroughLatencySingleMessage(t *testing.T) {
	// With equal host/link rates, a single-MTU message experiences pure
	// cut-through latency: one serialization plus per-hop header
	// delays — not store-and-forward.
	lft := fig1LFT()
	cfg := DefaultConfig()
	cfg.HostBandwidth = cfg.LinkBandwidth
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run([][]Message{{{Src: 0, Dst: 15, Bytes: int64(cfg.MTU)}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	links := 4 // host-leaf, leaf-spine, spine-leaf, leaf-host
	ser := serTime(int64(cfg.MTU), cfg.LinkBandwidth)
	want := des.Time(links-1)*(cfg.LinkLatency+cfg.SwitchLatency) + ser + cfg.LinkLatency
	if st.MeanLatency() != want {
		t.Errorf("latency = %d ps, want cut-through %d ps", st.MeanLatency(), want)
	}
	sf := des.Time(links) * ser // store-and-forward serialization alone
	if st.MeanLatency() >= sf {
		t.Errorf("latency %d not better than store-and-forward %d", st.MeanLatency(), sf)
	}
	if st.BytesDelivered != int64(cfg.MTU) {
		t.Errorf("delivered %d bytes, want %d", st.BytesDelivered, cfg.MTU)
	}
}

func TestSameLeafLatencyShorter(t *testing.T) {
	lft := fig1LFT()
	nw, _ := New(lft, DefaultConfig())
	far, err := nw.Run([][]Message{{{Src: 0, Dst: 15, Bytes: 2048}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	near, err := nw.Run([][]Message{{{Src: 0, Dst: 1, Bytes: 2048}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if near.MeanLatency() >= far.MeanLatency() {
		t.Errorf("same-leaf latency %d not shorter than cross-spine %d", near.MeanLatency(), far.MeanLatency())
	}
}

func TestHostBandwidthCap(t *testing.T) {
	// A long single flow saturates at the PCIe rate, not the wire rate.
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	bytes := int64(16 << 20)
	st, err := nw.Run([][]Message{{{Src: 0, Dst: 15, Bytes: bytes}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	bw := st.EffectiveBandwidth()
	if bw > cfg.HostBandwidth*1.001 {
		t.Errorf("bandwidth %.0f exceeds PCIe cap %.0f", bw, cfg.HostBandwidth)
	}
	if bw < cfg.HostBandwidth*0.98 {
		t.Errorf("bandwidth %.0f well under PCIe cap %.0f", bw, cfg.HostBandwidth)
	}
}

func TestPermutationFullBandwidth(t *testing.T) {
	// Contention-free shift permutation: every host sustains its full
	// injection rate simultaneously (the Section VII claim).
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	per := int64(4 << 20)
	var msgs []Message
	for i := 0; i < 16; i++ {
		msgs = append(msgs, Message{Src: i, Dst: (i + 4) % 16, Bytes: per})
	}
	st, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDelivered != per*16 {
		t.Errorf("delivered %d, want %d", st.BytesDelivered, per*16)
	}
	agg := st.EffectiveBandwidth()
	ideal := cfg.HostBandwidth * 16
	if agg < ideal*0.97 {
		t.Errorf("aggregate %.0f below 97%% of ideal %.0f — contention where none expected", agg, ideal)
	}
}

func TestSharedLinkHalvesBandwidth(t *testing.T) {
	// Hosts 0 and 1 send to destinations 4 and 8: both ≡ 0 mod 4, so
	// D-Mod-K pushes both flows through leaf up-port 0 — one 4000 MB/s
	// wire carrying two 3250 MB/s flows.
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	per := int64(8 << 20)
	st, err := nw.Run([][]Message{{
		{Src: 0, Dst: 4, Bytes: per},
		{Src: 1, Dst: 8, Bytes: per},
	}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	agg := st.EffectiveBandwidth()
	if agg > cfg.LinkBandwidth*1.02 {
		t.Errorf("aggregate %.0f exceeds the shared wire rate %.0f", agg, cfg.LinkBandwidth)
	}
	if agg < cfg.LinkBandwidth*0.9 {
		t.Errorf("aggregate %.0f far below the shared wire rate %.0f", agg, cfg.LinkBandwidth)
	}
}

func TestByteConservationRandomTraffic(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	r := rand.New(rand.NewSource(3))
	var msgs []Message
	var total int64
	for i := 0; i < 200; i++ {
		src := r.Intn(128)
		dst := r.Intn(128)
		if dst == src {
			dst = (dst + 1) % 128
		}
		b := int64(1 + r.Intn(10000))
		msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: b})
		total += b
	}
	st, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDelivered != total {
		t.Errorf("delivered %d bytes, want %d", st.BytesDelivered, total)
	}
	if st.MessagesDelivered != 200 {
		t.Errorf("delivered %d messages, want 200", st.MessagesDelivered)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	nw, _ := New(lft, DefaultConfig())
	r := rand.New(rand.NewSource(4))
	var msgs []Message
	for i := 0; i < 100; i++ {
		src, dst := r.Intn(128), r.Intn(128)
		if src == dst {
			dst = (dst + 7) % 128
		}
		msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: int64(1 + r.Intn(65536))})
	}
	a, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	// Stats holds no wall-clock field, so a rerun matches field for field.
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestRunStagesBarrier(t *testing.T) {
	lft := fig1LFT()
	nw, _ := New(lft, DefaultConfig())
	mk := func(shift int) []Message {
		var msgs []Message
		for i := 0; i < 16; i++ {
			msgs = append(msgs, Message{Src: i, Dst: (i + shift) % 16, Bytes: 65536})
		}
		return msgs
	}
	st, err := nw.Run([][]Message{mk(1), mk(2), mk(3)}, Barrier)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StageDurations) != 3 {
		t.Fatalf("stage durations = %d, want 3", len(st.StageDurations))
	}
	var sum des.Time
	for i, d := range st.StageDurations {
		if d <= 0 {
			t.Errorf("stage %d duration %d", i, d)
		}
		sum += d
	}
	if sum != st.Duration {
		t.Errorf("stage durations sum %d != total %d", sum, st.Duration)
	}
	if st.BytesDelivered != 3*16*65536 {
		t.Errorf("delivered %d", st.BytesDelivered)
	}
}

func TestAsyncOverlapsFasterThanSync(t *testing.T) {
	// Asynchronous progression lets stages overlap; with contention the
	// barrier version can only be slower or equal.
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	nw, _ := New(lft, DefaultConfig())
	n := 128
	mk := func(shift int) []Message {
		var msgs []Message
		for i := 0; i < n; i++ {
			msgs = append(msgs, Message{Src: i, Dst: (i + shift) % n, Bytes: 32768})
		}
		return msgs
	}
	var stages [][]Message
	for s := 1; s <= 5; s++ {
		stages = append(stages, mk(s))
	}
	async, err := nw.Run(stages, Async)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := nw.Run(stages, Barrier)
	if err != nil {
		t.Fatal(err)
	}
	if async.Duration > sync.Duration {
		t.Errorf("async %d slower than barrier %d", async.Duration, sync.Duration)
	}
}

func TestSmallMessagesManyPackets(t *testing.T) {
	// A 5000-byte message is 3 packets (2048+2048+904); all must land.
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	st, err := nw.Run([][]Message{{{Src: 2, Dst: 9, Bytes: 5000}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDelivered != 5000 {
		t.Errorf("delivered %d, want 5000", st.BytesDelivered)
	}
	if st.MessagesDelivered != 1 {
		t.Errorf("messages = %d, want 1", st.MessagesDelivered)
	}
}

func TestInputValidation(t *testing.T) {
	lft := fig1LFT()
	nw, _ := New(lft, DefaultConfig())
	for _, bad := range [][]Message{
		{{Src: 0, Dst: 0, Bytes: 10}},
		{{Src: -1, Dst: 1, Bytes: 10}},
		{{Src: 0, Dst: 99, Bytes: 10}},
		{{Src: 0, Dst: 1, Bytes: 0}},
	} {
		if _, err := nw.Run([][]Message{bad}, Async); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
	// 2^32+3 one-byte packets: the count must not wrap to 3 in int32.
	cfg := DefaultConfig()
	cfg.MTU = 1
	tiny, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := tiny.Run([][]Message{[]Message{{Src: 0, Dst: 1, Bytes: 1<<32 + 3}}}, Async); err == nil {
		t.Errorf("2^32+3 bytes at MTU 1 accepted: %d bytes delivered", st.BytesDelivered)
	}
}

func TestConfigValidation(t *testing.T) {
	lft := fig1LFT()
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.LinkBandwidth = 0; return c }(),
		func() Config { c := DefaultConfig(); c.HostBandwidth = -1; return c }(),
		func() Config { c := DefaultConfig(); c.MTU = 0; return c }(),
		func() Config { c := DefaultConfig(); c.BufferPackets = 0; return c }(),
		func() Config { c := DefaultConfig(); c.LinkLatency = -1; return c }(),
		// Each of these used to be accepted and then mishandled: a panic,
		// a wrapped counter or a run that "completed" in no time.
		func() Config { c := DefaultConfig(); c.MTU = 1 << 31; return c }(),
		func() Config { c := DefaultConfig(); c.LinkBandwidth = math.NaN(); return c }(),
		func() Config { c := DefaultConfig(); c.HostBandwidth = math.NaN(); return c }(),
		func() Config { c := DefaultConfig(); c.LinkBandwidth = math.Inf(1); return c }(),
		func() Config { c := DefaultConfig(); c.HostBandwidth = math.Inf(1); return c }(),
		func() Config { c := DefaultConfig(); c.BufferPackets = 1 << 32; return c }(),
		func() Config { c := DefaultConfig(); c.LinkLatency = math.MaxInt64 / 2; return c }(),
		func() Config { c := DefaultConfig(); c.SwitchLatency = math.MaxInt64 / 2; return c }(),
		func() Config { c := DefaultConfig(); c.MTU = math.MaxInt32; c.HostBandwidth = 1e6; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(lft, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Three flows: A (0->4) and B (1->8) share leaf-0 up-port 0.
	// C (2->5) uses a different up-port and must be unaffected...
	// unless it queues behind them at the spine. Verify that the two
	// sharing flows each get roughly half the wire while C keeps full
	// rate.
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	per := int64(4 << 20)
	st, err := nw.Run([][]Message{{
		{Src: 0, Dst: 4, Bytes: per},
		{Src: 1, Dst: 8, Bytes: per},
		{Src: 2, Dst: 5, Bytes: per},
	}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	// C finishes at ~per/3250MBps; A and B at ~2*per/4000MBps. The
	// makespan is governed by the shared pair.
	wantShared := des.Time(float64(2*per) / cfg.LinkBandwidth * float64(des.Second))
	if st.Duration < wantShared*95/100 {
		t.Errorf("duration %d shorter than the shared-wire bound %d", st.Duration, wantShared)
	}
	if st.Duration > wantShared*115/100 {
		t.Errorf("duration %d much longer than the shared-wire bound %d", st.Duration, wantShared)
	}
}

func TestRunResetsBetweenCalls(t *testing.T) {
	lft := fig1LFT()
	nw, _ := New(lft, DefaultConfig())
	a, err := nw.Run([][]Message{{{Src: 0, Dst: 5, Bytes: 4096}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Run([][]Message{{{Src: 0, Dst: 5, Bytes: 4096}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("state leaked between runs: %+v vs %+v", a, b)
	}
}

func TestRunStagesJitter(t *testing.T) {
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	mk := func() []Message {
		var msgs []Message
		for i := 0; i < 16; i++ {
			msgs = append(msgs, Message{Src: i, Dst: (i + 4) % 16, Bytes: 65536})
		}
		return msgs
	}
	base, err := nw.Run([][]Message{mk(), mk()}, Barrier)
	if err != nil {
		t.Fatal(err)
	}
	jitter := 50 * des.Microsecond
	jit, err := nw.RunStagesJitter([][]Message{mk(), mk()}, jitter, 1)
	if err != nil {
		t.Fatal(err)
	}
	if jit.Duration <= base.Duration {
		t.Errorf("jittered run %d not slower than base %d", jit.Duration, base.Duration)
	}
	// Contention-free traffic absorbs jitter additively: per stage the
	// inflation is at most the maximum skew.
	if jit.Duration > base.Duration+2*jitter+des.Microsecond {
		t.Errorf("jitter inflated %d -> %d, more than additive bound %d",
			base.Duration, jit.Duration, base.Duration+2*jitter)
	}
	if jit.BytesDelivered != base.BytesDelivered {
		t.Errorf("bytes differ: %d vs %d", jit.BytesDelivered, base.BytesDelivered)
	}
	// Deterministic per seed.
	again, err := nw.RunStagesJitter([][]Message{mk(), mk()}, jitter, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Duration != jit.Duration {
		t.Error("jitter not deterministic per seed")
	}
	if _, err := nw.RunStagesJitter(nil, -1, 1); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestLinkUtilizationAccounting(t *testing.T) {
	lft := fig1LFT()
	cfg := DefaultConfig()
	cfg.HostBandwidth = cfg.LinkBandwidth
	nw, _ := New(lft, cfg)
	st, err := nw.Run([][]Message{{{Src: 0, Dst: 15, Bytes: 16 << 20}}}, Async)
	if err != nil {
		t.Fatal(err)
	}
	// A single long flow keeps every link on its path nearly fully
	// busy.
	if u := st.MaxLinkUtilization(); u < 0.95 || u > 1.0 {
		t.Errorf("max link utilization = %v, want ~1", u)
	}
	// Exactly 4 directed channels are on the path (and equally busy).
	saturated := 0
	for _, b := range st.LinkBusy {
		if float64(b) >= 0.9*float64(st.Duration) {
			saturated++
		}
	}
	if saturated != 4 {
		t.Errorf("saturated links = %d, want 4", saturated)
	}
}

func TestStressTinyBuffersNoDeadlock(t *testing.T) {
	// Credit-starved fabric under heavy random load: the up*/down*
	// routing plus credit flow control must never deadlock.
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	cfg := DefaultConfig()
	cfg.BufferPackets = 1
	nw, _ := New(lft, cfg)
	r := rand.New(rand.NewSource(13))
	var msgs []Message
	var total int64
	for i := 0; i < 1000; i++ {
		src, dst := r.Intn(128), r.Intn(128)
		if src == dst {
			dst = (dst + 1) % 128
		}
		b := int64(1 + r.Intn(20000))
		msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: b})
		total += b
	}
	st, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDelivered != total {
		t.Errorf("delivered %d of %d bytes", st.BytesDelivered, total)
	}
}

func TestAdaptivePerPacketThroughSimulator(t *testing.T) {
	// Per-packet adaptive routing must still conserve bytes and deliver
	// every message, just possibly out of order.
	tp := topo.MustBuild(topo.Cluster128)
	ada := route.NewAdaptive(tp, 5)
	nw, err := New(ada, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var msgs []Message
	for i := 0; i < 128; i++ {
		msgs = append(msgs, Message{Src: i, Dst: (i + 64) % 128, Bytes: 64 << 10})
	}
	st, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDelivered != 128*(64<<10) {
		t.Errorf("delivered %d bytes", st.BytesDelivered)
	}
	if st.MessagesDelivered != 128 {
		t.Errorf("delivered %d messages", st.MessagesDelivered)
	}
}

func TestDeterministicRoutingNeverReorders(t *testing.T) {
	// With single-path routing and FIFO queues, packets of a message
	// can never overtake each other, whatever the contention.
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	nw, _ := New(lft, DefaultConfig())
	r := rand.New(rand.NewSource(21))
	var msgs []Message
	for i := 0; i < 300; i++ {
		src, dst := r.Intn(128), r.Intn(128)
		if src == dst {
			dst = (dst + 3) % 128
		}
		msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: int64(2048 * (1 + r.Intn(30)))})
	}
	st, err := nw.Run([][]Message{msgs}, Async)
	if err != nil {
		t.Fatal(err)
	}
	if st.OutOfOrderPackets != 0 {
		t.Errorf("deterministic routing reordered %d packets", st.OutOfOrderPackets)
	}
}

func TestRunDependentOrderingConstraint(t *testing.T) {
	// Two stages: host 0 sends to 5 in stage 0 and to 9 in stage 1;
	// host 5 sends back to 0 in stage 0. Host 0 must not inject its
	// stage-1 message before receiving host 5's stage-0 message, so the
	// makespan exceeds the sum of its own send times.
	lft := fig1LFT()
	cfg := DefaultConfig()
	nw, _ := New(lft, cfg)
	stages := [][]Message{
		{{Src: 0, Dst: 5, Bytes: 2048}, {Src: 5, Dst: 0, Bytes: 1 << 20}},
		{{Src: 0, Dst: 9, Bytes: 2048}},
	}
	dep, err := nw.Run(stages, Dependent)
	if err != nil {
		t.Fatal(err)
	}
	// Async mode would let host 0 fire both sends back to back.
	async, err := nw.Run(stages, Async)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Duration <= async.Duration {
		t.Errorf("dependent %d not slower than async %d despite the receive dependency", dep.Duration, async.Duration)
	}
	// The 1 MiB transfer gates stage 1: duration >= its serialization.
	minGate := serTime(1<<20, cfg.HostBandwidth)
	if dep.Duration < minGate {
		t.Errorf("dependent run %d shorter than the gating transfer %d", dep.Duration, minGate)
	}
	if dep.BytesDelivered != async.BytesDelivered {
		t.Errorf("delivered bytes differ: %d vs %d", dep.BytesDelivered, async.BytesDelivered)
	}
}

func TestRunDependentCollective(t *testing.T) {
	// A full recursive-doubling exchange on 16 hosts: all stages must
	// complete, and the makespan must sit between async (too loose) and
	// barrier (too strict) semantics.
	lft := fig1LFT()
	nw, _ := New(lft, DefaultConfig())
	var stages [][]Message
	for s := 0; s < 4; s++ {
		var st []Message
		for i := 0; i < 16; i++ {
			st = append(st, Message{Src: i, Dst: i ^ (1 << s), Bytes: 128 << 10})
		}
		stages = append(stages, st)
	}
	dep, err := nw.Run(stages, Dependent)
	if err != nil {
		t.Fatal(err)
	}
	async, err := nw.Run(stages, Async)
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := nw.Run(stages, Barrier)
	if err != nil {
		t.Fatal(err)
	}
	if dep.MessagesDelivered != 64 {
		t.Fatalf("delivered %d messages", dep.MessagesDelivered)
	}
	if dep.Duration < async.Duration {
		t.Errorf("dependent %d faster than async %d", dep.Duration, async.Duration)
	}
	// Barrier is NOT a strict upper bound for dependent in general
	// (cross-stage overlap can collide flows), but on this
	// contention-free schedule the two should be within a small factor.
	if dep.Duration > 2*barrier.Duration {
		t.Errorf("dependent %d far beyond barrier %d on contention-free traffic", dep.Duration, barrier.Duration)
	}
}

func TestRunDependentSkipsIdleStages(t *testing.T) {
	// Hosts 2 and 3 have no part in stage 0: their frontier must start
	// past it, or host 2's stage-1 send waits for good.
	nw, _ := New(fig1LFT(), DefaultConfig())
	st, err := nw.Run([][]Message{{{Src: 0, Dst: 1, Bytes: 4096}}, {{Src: 2, Dst: 3, Bytes: 4096}}}, Dependent)
	if err != nil {
		t.Fatal(err)
	}
	if st.MessagesDelivered != 2 {
		t.Errorf("delivered %d messages, want 2", st.MessagesDelivered)
	}
}

func TestRunDependentDeadlockFreeUnderContention(t *testing.T) {
	// Dependencies + finite credits + contention must still drain.
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	cfg := DefaultConfig()
	cfg.BufferPackets = 1
	nw, _ := New(lft, cfg)
	r := rand.New(rand.NewSource(17))
	var stages [][]Message
	for s := 0; s < 5; s++ {
		perm := r.Perm(128)
		var st []Message
		for i, d := range perm {
			if i != d {
				st = append(st, Message{Src: i, Dst: d, Bytes: 16 << 10})
			}
		}
		stages = append(stages, st)
	}
	st, err := nw.Run(stages, Dependent)
	if err != nil {
		t.Fatal(err)
	}
	if st.MessagesDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

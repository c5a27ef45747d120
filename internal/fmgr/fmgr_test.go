package fmgr

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fattree/internal/fabric"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// lftOf returns the forwarding tables of st's engine (nil for an engine
// with no forwarding-table realization).
func lftOf(st *FabricState) *route.LFT { return st.tb.LFT }

func buildTopo(tb testing.TB, spec string) *topo.Topology {
	tb.Helper()
	g, err := topo.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := topo.Build(g)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func newManager(tb testing.TB, spec string, mutate func(*Config)) *Manager {
	tb.Helper()
	cfg := Config{
		Topo:     buildTopo(tb, spec),
		Debounce: 5 * time.Millisecond,
		Metrics:  obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Close)
	return m
}

// waitEpoch polls until the current snapshot reaches at least the given
// epoch.
func waitEpoch(tb testing.TB, m *Manager, min uint64) *FabricState {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Current()
		if st.Epoch >= min {
			return st
		}
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for epoch %d (at %d)", min, st.Epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

// fabricLink returns a switch-to-switch link (level >= 2), so failing it
// never makes a host unroutable.
func fabricLink(tb testing.TB, t *topo.Topology, skip int) topo.LinkID {
	tb.Helper()
	for i := range t.Links {
		if t.Links[i].Level >= 2 {
			if skip == 0 {
				return topo.LinkID(i)
			}
			skip--
		}
	}
	tb.Fatal("no fabric link found")
	return topo.None
}

func sameTrace(tb testing.TB, a, b *route.LFT, src, dst int) {
	tb.Helper()
	ha, err := a.Trace(src, dst)
	if err != nil {
		tb.Fatalf("trace %d->%d on %s: %v", src, dst, a.Name, err)
	}
	hb, err := b.Trace(src, dst)
	if err != nil {
		tb.Fatalf("trace %d->%d on %s: %v", src, dst, b.Name, err)
	}
	if len(ha) != len(hb) {
		tb.Fatalf("trace %d->%d: %d hops vs %d", src, dst, len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			tb.Fatalf("trace %d->%d hop %d: %+v vs %+v", src, dst, i, ha[i], hb[i])
		}
	}
}

func TestInitialSnapshotMatchesDModK(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	st := m.Current()
	if st.Epoch != 1 {
		t.Fatalf("initial epoch = %d, want 1", st.Epoch)
	}
	if !st.HSD.ContentionFree() {
		t.Fatalf("fault-free Shift summary not contention free: max HSD %d", st.HSD.MaxHSD())
	}
	if st.Paths.NumBroken() != 0 || len(st.Unroutable) != 0 || len(st.FailedLinks) != 0 {
		t.Fatalf("fault-free snapshot reports damage: %d broken, %v unroutable, %v failed",
			st.Paths.NumBroken(), st.Unroutable, st.FailedLinks)
	}
	ref := route.DModK(st.Topo)
	n := st.Topo.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				sameTrace(t, lftOf(st), ref, src, dst)
			}
		}
	}
}

func TestFaultRerouteAndRevive(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	init := m.Current()
	m.Start()
	lnk := fabricLink(t, init.Topo, 0)

	if _, err := m.InjectFaults([]topo.LinkID{lnk}, nil, 0); err != nil {
		t.Fatal(err)
	}
	st := waitEpoch(t, m, 2)
	if len(st.FailedLinks) != 1 || st.FailedLinks[0] != lnk {
		t.Fatalf("failed links = %v, want [%d]", st.FailedLinks, lnk)
	}
	if len(st.Unroutable) != 0 {
		t.Fatalf("fabric-link fault made hosts unroutable: %v", st.Unroutable)
	}
	// Every pair must still be served (fabric links have parallel
	// copies on an RLFT, so one dead link cannot partition it).
	if st.Paths.NumBroken() != 0 {
		t.Fatalf("%d broken pairs after a single fabric-link fault", st.Paths.NumBroken())
	}

	if _, err := m.InjectFaults(nil, []topo.LinkID{lnk}, 0); err != nil {
		t.Fatal(err)
	}
	st = waitEpoch(t, m, 3)
	if len(st.FailedLinks) != 0 {
		t.Fatalf("failed links after revive = %v, want none", st.FailedLinks)
	}
	// Recovered tables must be bit-identical with the original routing.
	n := st.Topo.NumHosts()
	for src := 0; src < n; src += 3 {
		for dst := 0; dst < n; dst += 5 {
			if src != dst {
				sameTrace(t, lftOf(st), lftOf(init), src, dst)
			}
		}
	}
}

// TestGateRefusesPathsOverDeadLinks: the snapshot gate holds served
// paths to the fault set the tables were built for. Repaired tables
// pass; the healthy tables, offered for a fabric with one of their links
// dead, still route over it and are refused.
func TestGateRefusesPathsOverDeadLinks(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	healthy := m.Current().tb
	fs := fabric.NewFaultSet(m.t)
	fs.Fail(fabricLink(t, m.t, 0))
	repaired, err := fs.Repair(m.healthy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validateTables(&fabricTables{Tables: repaired, failedLinks: fs.FailedLinks()}); err != nil {
		t.Fatalf("the gate refuses repaired tables: %v", err)
	}
	err = m.validateTables(&fabricTables{Tables: healthy.Tables, failedLinks: fs.FailedLinks()})
	if err == nil || !strings.Contains(err.Error(), "crosses dead link") {
		t.Fatalf("the gate passes healthy tables over a dead link: %v", err)
	}
}

func TestJobsThroughEventLoop(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	g := m.alloc.Granule()

	a, err := m.AllocJob(2*g, true)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ContentionFree || !a.Isolated {
		t.Fatalf("aligned granule-multiple job not CF/isolated: %+v", a)
	}
	b, err := m.AllocJob(g-1, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.ContentionFree {
		t.Fatalf("ragged job reported contention free")
	}
	if _, err := m.AllocJob(10*m.t.NumHosts(), false); err == nil {
		t.Fatal("oversized job allocated")
	}

	// A placement is served on return: one epoch each, the refusal none.
	st := m.Current()
	if st.Epoch != 3 || len(st.Jobs) != 2 {
		t.Fatalf("epoch %d has %d jobs, want epoch 3 with 2", st.Epoch, len(st.Jobs))
	}
	// Snapshot jobs are deep copies: mutating them must not reach the
	// allocator's live records.
	st.Jobs[0].Hosts[0] = -99
	if err := m.FreeJob(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeJob(a.ID); err == nil {
		t.Fatal("double free succeeded")
	}
	if err := m.FreeJob(b.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.cfg.Metrics.Gauge("fmgr_jobs_active").Value(); got != 0 {
		t.Fatalf("fmgr_jobs_active = %d, want 0", got)
	}
}

func TestUnroutableHostServedAsBroken(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	host0 := m.t.Host(0)
	uplink := m.t.Ports[host0.Up[0]].Link
	if _, err := m.InjectFaults([]topo.LinkID{uplink}, nil, 0); err != nil {
		t.Fatal(err)
	}
	st := waitEpoch(t, m, 2)
	if !slices.Contains(st.Unroutable, 0) {
		t.Fatalf("host 0 not marked unroutable; unroutable = %v", st.Unroutable)
	}
	if !st.Paths.Broken(0, 5) || !st.Paths.Broken(5, 0) {
		t.Fatal("pairs touching the unroutable host not marked broken")
	}
	if st.HSD == nil || st.HSD.MaxHSD() < 1 {
		t.Fatalf("no usable HSD summary on the degraded fabric: %+v", st.HSD)
	}
	// Unaffected pairs keep valid paths.
	if _, err := st.Paths.PackedPath(1, 9); err != nil {
		t.Fatal(err)
	}
}

func TestClosedManagerRejectsEvents(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	m.Close()
	if _, err := m.InjectFaults([]topo.LinkID{0}, nil, 0); err == nil {
		t.Fatal("InjectFaults succeeded on a closed manager")
	}
	if _, err := m.AllocJob(4, false); err == nil {
		t.Fatal("AllocJob succeeded on a closed manager")
	}
	// Current still serves the last snapshot after close.
	if m.Current() == nil {
		t.Fatal("Current returned nil after close")
	}
}

func TestInjectFaultsValidatesLinks(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	if _, err := m.InjectFaults([]topo.LinkID{topo.LinkID(len(m.t.Links))}, nil, 0); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := m.InjectFaults(nil, nil, -1); err == nil {
		t.Fatal("negative fail_random accepted")
	}
}

// TestSnapshotImmutableUnderSwaps drives many reroute rounds while a
// reader holds an old snapshot, checking the old epoch's paths never
// change — the RCU property the HTTP layer relies on.
func TestSnapshotImmutableUnderSwaps(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	held := m.Current()
	want, err := lftOf(held).Trace(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	lnk := fabricLink(t, m.t, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			m.InjectFaults([]topo.LinkID{lnk}, nil, 0)
			m.InjectFaults(nil, []topo.LinkID{lnk}, 0)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	waitEpoch(t, m, 2)
	got, err := lftOf(held).Trace(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("held snapshot changed: %d hops vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("held snapshot hop %d changed: %+v vs %+v", i, got[i], want[i])
		}
	}
}

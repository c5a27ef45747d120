package fclient

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"fattree/internal/fmgr"
	"fattree/internal/obs"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

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

func newReplicaManager(tb testing.TB, spec string) *fmgr.Manager {
	tb.Helper()
	m, err := fmgr.New(fmgr.Config{
		Topo:     buildTopo(tb, spec),
		Debounce: 5 * time.Millisecond,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Close)
	m.Start()
	return m
}

// serveBinary exposes one manager's wire protocol on a loopback
// listener and returns its address.
func serveBinary(tb testing.TB, m *fmgr.Manager) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go m.ServeWire(c)
		}
	}()
	tb.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func waitManagerEpoch(tb testing.TB, m *fmgr.Manager, min uint64) *fmgr.FabricState {
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

// fabricLinks returns deterministic switch-to-switch links, so the same
// fault sequence can be replayed onto independent replicas.
func fabricLinks(tb testing.TB, t *topo.Topology, n int) []topo.LinkID {
	tb.Helper()
	var out []topo.LinkID
	for i := range t.Links {
		if t.Links[i].Level >= 2 {
			out = append(out, topo.LinkID(i))
			if len(out) == n {
				return out
			}
		}
	}
	tb.Fatalf("only %d fabric links, need %d", len(out), n)
	return nil
}

// TestMultiReplicaEquivalence is the replica-convergence wall: two
// independent daemons fed the same fault sequence must serve
// byte-identical epoch-stamped route sets at every epoch, and a client
// interleaving requests across both replicas while faults land must
// never observe a set that (a) rolls its job's epoch backwards or
// (b) differs from the canonical set of the epoch it is stamped with —
// i.e. no mixed-epoch hops, ever. Run under -race in the race suite.
func TestMultiReplicaEquivalence(t *testing.T) {
	const spec = "rlft2:4,8"
	ma := newReplicaManager(t, spec)
	mb := newReplicaManager(t, spec)

	ja, err := ma.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := mb.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if ja.ID != jb.ID {
		t.Fatalf("replicas placed different job IDs: %d vs %d", ja.ID, jb.ID)
	}
	job := ja.ID

	// expected[epoch] is the canonical pair list of that epoch: the
	// expansion of the job frame both replicas precomputed, identical
	// across replicas by construction (asserted below).
	expected := map[uint64][]byte{}
	var expMu sync.Mutex
	record := func(epoch uint64) {
		sa := waitManagerEpoch(t, ma, epoch)
		sb := waitManagerEpoch(t, mb, epoch)
		fa, fb := sa.JobRouteSets[job].Frame, sb.JobRouteSets[job].Frame
		if len(fa) == 0 || !bytes.Equal(fa, fb) {
			t.Fatalf("epoch %d: replica frames differ (len %d vs %d)", epoch, len(fa), len(fb))
		}
		msg, err := wire.ReadMessage(bytes.NewReader(fa))
		if err != nil {
			t.Fatalf("epoch %d: snapshot frame does not decode: %v", epoch, err)
		}
		expMu.Lock()
		expected[epoch] = wire.EncodeFrame(msg.(*wire.RouteSetFactored).Expand())
		expMu.Unlock()
	}
	record(2) // the placement, served when AllocJob returned

	c, err := New(Config{Addrs: []string{serveBinary(t, ma), serveBinary(t, mb)}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Interleaving client: hammer JobRouteSet across both replicas
	// while the fault sequence lands.
	type obsSet struct {
		epoch uint64
		frame []byte
	}
	var observed []obsSet
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			set, err := c.JobRouteSet(uint64(job))
			if err != nil {
				t.Errorf("JobRouteSet: %v", err)
				return
			}
			observed = append(observed, obsSet{set.Epoch, wire.EncodeFrame(set)})
		}
	}()

	// The same deterministic fault sequence onto both replicas.
	links := fabricLinks(t, buildTopo(t, spec), 3)
	for i, l := range links {
		if _, err := ma.InjectFaults([]topo.LinkID{l}, nil, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mb.InjectFaults([]topo.LinkID{l}, nil, 0); err != nil {
			t.Fatal(err)
		}
		record(uint64(3 + i))
	}

	close(stop)
	wg.Wait()

	if len(observed) == 0 {
		t.Fatal("client made no observations")
	}
	var last uint64
	for i, o := range observed {
		if o.epoch < last {
			t.Fatalf("observation %d: epoch rolled back %d -> %d", i, last, o.epoch)
		}
		last = o.epoch
		want, ok := expected[o.epoch]
		if !ok {
			t.Fatalf("observation %d: epoch %d was never canonical", i, o.epoch)
		}
		if !bytes.Equal(o.frame, want) {
			t.Fatalf("observation %d: epoch %d set differs from the canonical expansion — mixed-epoch hops", i, o.epoch)
		}
	}
	if n := c.EpochRegressions(); n != 0 {
		t.Fatalf("%d epoch regressions against monotonic replicas", n)
	}
	t.Logf("%d interleaved observations across epochs 2..%d, all canonical", len(observed), last)
}

// TestBystanderAcrossForeignPlacements: other jobs coming and going move
// the daemon's epoch, not this job's routes. A client polling through k
// foreign placements and frees keeps the very set it holds — the same
// value, its decoded frame never replaced, so nothing was expanded or
// patched — for one probe and one NotModified per epoch, with no
// regression counted; a fault then costs it exactly one re-expansion.
// And a freed job's set is let go the moment the daemon says so.
func TestBystanderAcrossForeignPlacements(t *testing.T) {
	m := newReplicaManager(t, "rlft2:4,8")
	c := newClient(t, Config{Addrs: []string{serveBinary(t, m)}})
	mine, err := m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	job := uint64(mine.ID)
	set, err := c.JobRouteSet(job)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func() *jobSet {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.jobs[job]
	}
	from := pinned().from

	const k = 6
	for i := 0; i < k; i++ {
		other, err := m.AllocJob(4, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, free := range []bool{false, true} {
			if free {
				if err := m.FreeJob(other.ID); err != nil {
					t.Fatal(err)
				}
			}
			for poll := 0; poll < 2; poll++ { // the second is a probe-only hit on the advanced pin
				got, err := c.JobRouteSet(job)
				if err != nil {
					t.Fatal(err)
				}
				if got != set || pinned().from != from {
					t.Fatalf("placement %d: a foreign job event replaced the pinned set", i)
				}
			}
			if pin, epoch := pinned().epoch, m.Current().Epoch; pin != epoch {
				t.Fatalf("placement %d: pinned at %d with the daemon at %d", i, pin, epoch)
			}
		}
	}
	if set.Epoch != 2 || m.Current().Epoch != 2+2*k || c.EpochRegressions() != 0 {
		t.Fatalf("set of epoch %d at daemon epoch %d, %d regressions", set.Epoch, m.Current().Epoch, c.EpochRegressions())
	}

	if _, err := m.InjectFaults(fabricLinks(t, m.Current().Topo, 1), nil, 0); err != nil {
		t.Fatal(err)
	}
	st := waitManagerEpoch(t, m, 3+2*k)
	got, err := c.JobRouteSet(job)
	if err != nil {
		t.Fatal(err)
	}
	if got == set || got.Epoch != st.Epoch || pinned().from == from {
		t.Fatalf("after a fault the client holds epoch %d, the daemon serves %d", got.Epoch, st.Epoch)
	}
	if again, err := c.JobRouteSet(job); err != nil || again != got {
		t.Fatalf("the reroute was fetched twice: %v", err)
	}

	// The job ends: one error, and the set is gone.
	if err := m.FreeJob(mine.ID); err != nil {
		t.Fatal(err)
	}
	var er *wire.ErrorResp
	if _, err := c.JobRouteSet(job); !errors.As(err, &er) || er.Code != wire.CodeNotFound {
		t.Fatalf("freed job: %v, want the daemon's NotFound", err)
	}
	if pinned() != nil {
		t.Fatal("the freed job's set is still pinned")
	}
	// The next job placed is fetched cold: no hint, a full expansion.
	next, err := m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.JobRouteSet(uint64(next.ID))
	if err != nil || cold.Epoch != m.Current().Epoch || sharedHops(cold, got) != 0 {
		t.Fatalf("fetch after re-placement: %v", err)
	}
	if c.EpochRegressions() != 0 {
		t.Fatalf("%d epoch regressions", c.EpochRegressions())
	}
}

// TestTransportErrorKeepsPinnedSet: only the daemon's own NotFound drops
// a cached set; a replica that cannot be reached leaves it for the next
// call to revalidate.
func TestTransportErrorKeepsPinnedSet(t *testing.T) {
	f := newFakeReplica(t, 5)
	c := newClient(t, Config{Addrs: []string{f.addr()}, maxAttempts: 2, dialTimeout: 200 * time.Millisecond})
	if _, err := c.JobRouteSet(3); err != nil {
		t.Fatal(err)
	}
	f.stop()
	if _, err := c.JobRouteSet(3); err == nil {
		t.Fatal("fetch succeeded with the replica gone")
	}
	c.mu.Lock()
	kept := c.jobs[3]
	c.mu.Unlock()
	if kept == nil || kept.epoch != 5 {
		t.Fatalf("a transport failure dropped the pinned set: %+v", kept)
	}
}

// TestLaggingReplicaNotModifiedKeepsPin: NotModified moves the pin
// forward only. A replica behind the pinned epoch — its routes older
// than the hint, so it answers NotModified at its own epoch — leaves the
// pin where it was and is counted; one ahead advances it, after which a
// probe alone revalidates.
func TestLaggingReplicaNotModifiedKeepsPin(t *testing.T) {
	f := newFakeReplica(t, 5)
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	set, err := c.JobRouteSet(3)
	if err != nil {
		t.Fatal(err)
	}
	pin := func() uint64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.jobs[3].epoch
	}
	poll := func(what string) {
		t.Helper()
		if got, err := c.JobRouteSet(3); err != nil || got != set {
			t.Fatalf("%s: %v, set of epoch %d", what, err, got.Epoch)
		}
	}

	f.setEpoch(9) // the probe runs ahead of the pin...
	f.setJobEpoch(2)
	poll("lagging replica") // ...and the job request lands behind it
	if pin() != 5 || c.EpochRegressions() != 1 || f.notMod.Load() != 1 {
		t.Fatalf("pinned at %d, %d regressions, %d NotModified; want 5, 1, 1", pin(), c.EpochRegressions(), f.notMod.Load())
	}

	f.setJobEpoch(0)
	f.setStamp(5) // epoch 9 placed other jobs: the routes are still those of 5
	poll("foreign placement")
	if pin() != 9 || f.notMod.Load() != 2 {
		t.Fatalf("pinned at %d after NotModified at 9 (%d sent)", pin(), f.notMod.Load())
	}
	poll("advanced pin")
	if f.notMod.Load() != 2 || f.setReqs.Load() != 1 || c.EpochRegressions() != 1 {
		t.Fatalf("%d NotModified, %d fetches, %d regressions; want a probe-only hit", f.notMod.Load(), f.setReqs.Load(), c.EpochRegressions())
	}
}

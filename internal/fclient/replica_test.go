package fclient

import (
	"bytes"
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
	record(2) // placement rebuild

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

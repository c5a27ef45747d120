package fclient

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fattree/internal/wire"
)

// fakeReplica is a scriptable server speaking the binary protocol: its
// epoch is settable mid-test, and job answers can be skewed relative to
// the probe epoch to exercise the client's regression guard. Like the
// daemon it holds a hint against the epoch its routes are stamped with
// and answers NotModified with the epoch it is at.
type fakeReplica struct {
	ln net.Listener

	mu        sync.Mutex
	epoch     uint64
	jobEpoch  uint64 // epoch route-set requests are answered at; 0 = use epoch
	stamp     uint64 // epoch the routes were computed at; 0 = use jobEpoch
	epochReqs atomic.Int64
	setReqs   atomic.Int64 // route-set requests answered with routes
	notMod    atomic.Int64 // route-set requests answered NotModified
	lastHint  atomic.Uint64
	conns     []net.Conn
	// jobMsg, when set before the first request, builds the job-mode
	// answer of an epoch in place of the two-host default.
	jobMsg func(epoch uint64) *wire.RouteSetFactored
}

func newFakeReplica(t *testing.T, epoch uint64) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{ln: ln, epoch: epoch}
	go f.acceptLoop()
	t.Cleanup(f.stop)
	return f
}

func (f *fakeReplica) addr() string { return f.ln.Addr().String() }

func (f *fakeReplica) setEpoch(e uint64) {
	f.mu.Lock()
	f.epoch = e
	f.mu.Unlock()
}

func (f *fakeReplica) setJobEpoch(e uint64) {
	f.mu.Lock()
	f.jobEpoch = e
	f.mu.Unlock()
}

func (f *fakeReplica) setStamp(e uint64) {
	f.mu.Lock()
	f.stamp = e
	f.mu.Unlock()
}

func (f *fakeReplica) stop() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.conns = nil
	f.mu.Unlock()
}

func (f *fakeReplica) acceptLoop() {
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns = append(f.conns, c)
		f.mu.Unlock()
		go f.serve(c)
	}
}

func (f *fakeReplica) serve(c net.Conn) {
	defer c.Close()
	for {
		m, err := wire.ReadMessage(c)
		if err != nil {
			return
		}
		f.mu.Lock()
		epoch, jobEpoch, stamp := f.epoch, f.jobEpoch, f.stamp
		f.mu.Unlock()
		if jobEpoch == 0 {
			jobEpoch = epoch
		}
		if stamp == 0 {
			stamp = jobEpoch
		}
		var resp wire.Message
		switch req := m.(type) {
		case wire.EpochReq:
			f.epochReqs.Add(1)
			resp = &wire.EpochResp{Epoch: epoch, Engine: "dmodk"}
		case *wire.RouteSetReq:
			f.lastHint.Store(req.EpochHint)
			if req.EpochHint != 0 && req.EpochHint >= stamp {
				f.notMod.Add(1)
				resp = &wire.NotModified{Epoch: jobEpoch}
				break
			}
			f.setReqs.Add(1)
			if !req.ByJob {
				resp = &wire.RouteSetResp{
					Epoch: stamp, Engine: "dmodk", Routing: "d-mod-k",
					Pairs: []wire.PairRoute{{Src: 0, Dst: 1, OK: true, Hops: []uint32{uint32(stamp)<<1 | 1, 4}}},
				}
				break
			}
			if f.jobMsg != nil {
				resp = f.jobMsg(stamp)
				break
			}
			// Hosts 0 and 1 on one leaf; 0's uplink is stamped with the
			// epoch so sets of different epochs differ in their hops.
			resp = &wire.RouteSetFactored{
				Epoch: stamp, Engine: "dmodk", Routing: "d-mod-k", Stride: 1, Rows: 1,
				Hosts:   []wire.FactoredHost{{Host: 0, Head: uint32(stamp)<<1 | 1}, {Host: 1, Head: 3}},
				TailOff: []uint32{0, 1, 2},
				Tails:   []uint32{2, 4},
			}
		default:
			resp = &wire.ErrorResp{Code: wire.CodeBadRequest, Msg: "fake: unexpected type"}
		}
		if err := wire.WriteMessage(c, resp); err != nil {
			return
		}
	}
}

// replicaStatus is one replica's health as the picker sees it.
type replicaStatus struct {
	Addr      string
	LastEpoch uint64
	Down      bool // in backoff after consecutive failures
}

func replicas(c *Client) []replicaStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]replicaStatus, len(c.reps))
	for i, r := range c.reps {
		out[i] = replicaStatus{Addr: r.addr, LastEpoch: r.lastEpoch, Down: now.Before(r.downUntil)}
	}
	return out
}

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.retryBase == 0 {
		cfg.retryBase = time.Millisecond
	}
	if cfg.retryMax == 0 {
		cfg.retryMax = 10 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientEpochProbe(t *testing.T) {
	f := newFakeReplica(t, 7)
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	epoch, eng, err := c.Epoch()
	if err != nil || epoch != 7 || eng != "dmodk" {
		t.Fatalf("epoch=%d eng=%q err=%v", epoch, eng, err)
	}
	// Second probe reuses the connection.
	if _, _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	conns := len(f.conns)
	f.mu.Unlock()
	if conns != 1 {
		t.Fatalf("%d connections for 2 probes, want 1 (no reuse)", conns)
	}
}

// TestClientJobCacheRevalidation pins the cache economics: a
// steady-state JobRouteSet call costs the server one epoch probe and
// zero route-set fetches, and an epoch bump triggers exactly one
// refetch carrying the pinned epoch as hint.
func TestClientJobCacheRevalidation(t *testing.T) {
	f := newFakeReplica(t, 5)
	c := newClient(t, Config{Addrs: []string{f.addr()}})

	set1, err := c.JobRouteSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if set1.Epoch != 5 || f.setReqs.Load() != 1 {
		t.Fatalf("first fetch: epoch %d, %d set reqs", set1.Epoch, f.setReqs.Load())
	}
	// The factored answer reaches the caller as the pair list it stands
	// for, expanded once: the cache hits below return this very value.
	if want := []wire.PairRoute{
		{Src: 0, Dst: 1, OK: true, Hops: []uint32{5<<1 | 1, 4}},
		{Src: 1, Dst: 0, OK: true, Hops: []uint32{3, 2}},
	}; !reflect.DeepEqual(set1.Pairs, want) {
		t.Fatalf("expanded job set %+v, want %+v", set1.Pairs, want)
	}

	// Same epoch: N calls are probe-only cache hits.
	for i := 0; i < 3; i++ {
		set, err := c.JobRouteSet(3)
		if err != nil {
			t.Fatal(err)
		}
		if set != set1 {
			t.Fatal("cache hit returned a different set")
		}
	}
	if got := f.setReqs.Load(); got != 1 {
		t.Fatalf("steady state refetched: %d set reqs, want 1", got)
	}
	if probes := f.epochReqs.Load(); probes < 3 {
		t.Fatalf("only %d epoch probes for 3 revalidations", probes)
	}

	// Epoch bump: one refetch, hinted with the pinned epoch.
	f.setEpoch(9)
	set2, err := c.JobRouteSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if set2.Epoch != 9 || f.setReqs.Load() != 2 {
		t.Fatalf("refetch: epoch %d, %d set reqs", set2.Epoch, f.setReqs.Load())
	}
	if hint := f.lastHint.Load(); hint != 5 {
		t.Fatalf("refetch hint %d, want pinned epoch 5", hint)
	}
}

// TestClientEpochRegressionGuard proves a pinned set never rolls back:
// whether the stale answer shows up at the probe or in the refetch
// response, the client keeps the pinned epoch and counts the event.
func TestClientEpochRegressionGuard(t *testing.T) {
	f := newFakeReplica(t, 5)
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	set1, err := c.JobRouteSet(3)
	if err != nil || set1.Epoch != 5 {
		t.Fatalf("seed fetch: %v epoch=%d", err, set1.Epoch)
	}

	// Probe-visible regression: server rolls back to 3.
	f.setEpoch(3)
	set, err := c.JobRouteSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Epoch != 5 || c.EpochRegressions() != 1 {
		t.Fatalf("probe regression: served epoch %d, %d regressions (want 5, 1)",
			set.Epoch, c.EpochRegressions())
	}
	if f.setReqs.Load() != 1 {
		t.Fatalf("regressed probe still caused a refetch (%d set reqs)", f.setReqs.Load())
	}

	// Refetch-visible regression: the probe advertises 9 but the job
	// request is answered at epoch 2 (an inconsistent or lagging replica):
	// its NotModified neither lowers the pin nor goes unnoticed.
	f.setEpoch(9)
	f.setJobEpoch(2)
	set, err = c.JobRouteSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Epoch != 5 || c.EpochRegressions() != 2 {
		t.Fatalf("refetch regression: served epoch %d, %d regressions (want 5, 2)",
			set.Epoch, c.EpochRegressions())
	}
}

// TestClientPickerPrefersNewestEpoch: once both replicas' epochs are
// known, requests go to the most advanced one only.
func TestClientPickerPrefersNewestEpoch(t *testing.T) {
	old := newFakeReplica(t, 4)
	cur := newFakeReplica(t, 9)
	c := newClient(t, Config{Addrs: []string{old.addr(), cur.addr()}})

	// Discovery: round-robin until both epochs are observed.
	for i := 0; i < 4; i++ {
		if _, _, err := c.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	oldBase := old.epochReqs.Load()
	for i := 0; i < 6; i++ {
		if _, _, err := c.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.epochReqs.Load(); got != oldBase {
		t.Fatalf("stale replica still served %d probes after discovery", got-oldBase)
	}
	var sawDown bool
	for _, r := range replicas(c) {
		if r.Addr == old.addr() && r.LastEpoch != 4 {
			t.Fatalf("stale replica status %+v", r)
		}
		sawDown = sawDown || r.Down
	}
	if sawDown {
		t.Fatal("healthy replicas reported as down")
	}
}

// TestClientFailover: killing the preferred replica sheds it into
// backoff and requests keep succeeding on the survivor; with every
// replica dead the attempt budget surfaces an error.
func TestClientFailover(t *testing.T) {
	a := newFakeReplica(t, 7)
	b := newFakeReplica(t, 7)
	c := newClient(t, Config{Addrs: []string{a.addr(), b.addr()}, maxAttempts: 6,
		dialTimeout: 500 * time.Millisecond, RequestTimeout: time.Second})

	a.stop()
	for i := 0; i < 5; i++ {
		if _, _, err := c.Epoch(); err != nil {
			t.Fatalf("probe %d with one live replica: %v", i, err)
		}
	}
	down := 0
	for _, r := range replicas(c) {
		if r.Down {
			down++
		}
	}
	if down != 1 {
		t.Fatalf("%d replicas down, want 1: %+v", down, replicas(c))
	}

	b.stop()
	if _, _, err := c.Epoch(); err == nil {
		t.Fatal("probe succeeded with every replica dead")
	} else if !strings.Contains(err.Error(), "attempts failed") {
		t.Fatalf("unexpected failure shape: %v", err)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty address list")
	}
}

// TestClientClosedFailsFast: requests on a Closed client return
// ErrClosed immediately instead of sleeping through the whole
// per-replica retry budget.
func TestClientClosedFailsFast(t *testing.T) {
	f := newFakeReplica(t, 7)
	c := newClient(t, Config{Addrs: []string{f.addr()}, maxAttempts: 100,
		retryBase: 100 * time.Millisecond, retryMax: time.Second})
	if _, _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	start := time.Now()
	if _, _, err := c.Epoch(); !errors.Is(err, ErrClosed) {
		t.Fatalf("probe on closed client: %v, want ErrClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("closed client took %v to fail", d)
	}
}

// TestClientConcurrentUse hammers one Client from many goroutines —
// the documented safe-for-concurrent-use contract. Per-replica
// serialization means every caller must get a correctly typed,
// correctly attributed answer off the shared connection; under -race
// this also proves the connection state is guarded.
func TestClientConcurrentUse(t *testing.T) {
	f := newFakeReplica(t, 7)
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch i % 3 {
				case 0:
					epoch, _, err := c.Epoch()
					if err != nil || epoch != 7 {
						t.Errorf("goroutine %d: epoch=%d err=%v", g, epoch, err)
						return
					}
				case 1:
					set, err := c.JobRouteSet(uint64(g))
					if err != nil {
						t.Errorf("goroutine %d: job set: %v", g, err)
						return
					}
					if set.Epoch != 7 {
						t.Errorf("goroutine %d: job set epoch %d", g, set.Epoch)
						return
					}
				default:
					rs, err := c.RouteSet("", [][2]uint32{{0, 1}})
					if err != nil {
						t.Errorf("goroutine %d: route set: %v", g, err)
						return
					}
					if rs.Epoch != 7 {
						t.Errorf("goroutine %d: route set epoch %d", g, rs.Epoch)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	f.mu.Lock()
	conns := len(f.conns)
	f.mu.Unlock()
	if conns != 1 {
		t.Fatalf("%d connections dialed by one client, want 1 (serialized reuse)", conns)
	}
}

// TestRouteSetAllocs holds a steady-state 324-pair RouteSet to the five
// allocations the decoded answer is made of — the message, its pair
// slab, its hop slab and two strings: the request is encoded into, and
// the answer read into, the replica's scratch. AllocsPerRun counts the
// whole process, so the peer is a loop that replays one recorded answer
// without allocating.
func TestRouteSetAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, 324)
	answer := &wire.RouteSetResp{Epoch: 3, Engine: "dmodk", Routing: "d-mod-k", Pairs: make([]wire.PairRoute, len(pairs))}
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(324)), uint32(rng.Intn(324))}
		answer.Pairs[i] = wire.PairRoute{Src: pairs[i][0], Dst: pairs[i][1], OK: true, Hops: make([]uint32, 2+2*rng.Intn(3))}
	}
	frame := wire.EncodeFrame(answer)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req := make([]byte, 64<<10)
		for {
			if _, err := io.ReadFull(conn, req[:wire.HeaderSize]); err != nil {
				return
			}
			if _, err := io.ReadFull(conn, req[:binary.LittleEndian.Uint32(req[4:])]); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	c := newClient(t, Config{Addrs: []string{ln.Addr().String()}})
	fetch := func() {
		rs, err := c.RouteSet("", pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Pairs) != len(pairs) {
			t.Fatalf("route set of %d pairs, want %d", len(rs.Pairs), len(pairs))
		}
	}
	for i := 0; i < 20; i++ {
		fetch()
	}
	if allocs := testing.AllocsPerRun(200, fetch); allocs > 5 {
		t.Errorf("one 324-pair RouteSet: %.0f allocations, want <= 5", allocs)
	}
}

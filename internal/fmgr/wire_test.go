package fmgr

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// startWireConn serves the binary protocol on an in-process pipe and
// returns the client end.
func startWireConn(t *testing.T, m *Manager) net.Conn {
	t.Helper()
	srv, cli := net.Pipe()
	go m.ServeWire(srv)
	t.Cleanup(func() { cli.Close() })
	return cli
}

// wireCall does one request/response round-trip.
func wireCall(t *testing.T, c net.Conn, req wire.Message) wire.Message {
	t.Helper()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMessage(c, req); err != nil {
		t.Fatalf("write %T: %v", req, err)
	}
	resp, err := wire.ReadMessage(c)
	if err != nil {
		t.Fatalf("read after %T: %v", req, err)
	}
	return resp
}

func TestWireEpochProbeAndOrder(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	c := startWireConn(t, m)

	er, ok := wireCall(t, c, wire.EpochReq{}).(*wire.EpochResp)
	if !ok || er.Epoch != m.Current().Epoch || er.Engine != m.Current().Engine {
		t.Fatalf("epoch probe: %#v (current epoch %d)", er, m.Current().Epoch)
	}

	or, ok := wireCall(t, c, wire.OrderReq{}).(*wire.OrderResp)
	if !ok {
		t.Fatalf("order: %#v", or)
	}
	st := m.Current()
	if or.Epoch != st.Epoch || or.Label != st.Ordering.Label || len(or.HostOf) != len(st.Ordering.HostOf) {
		t.Fatalf("order resp %#v vs snapshot %q/%d hosts", or, st.Ordering.Label, len(st.Ordering.HostOf))
	}
	for i, h := range st.Ordering.HostOf {
		if or.HostOf[i] != uint32(h) {
			t.Fatalf("host_of[%d] = %d, want %d", i, or.HostOf[i], h)
		}
	}
}

func TestWireEpochNegotiation(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	c := startWireConn(t, m)
	epoch := m.Current().Epoch

	// Matching hint: NotModified, no table touch.
	nm, ok := wireCall(t, c, &wire.RouteSetReq{EpochHint: epoch, Pairs: [][2]uint32{{0, 1}}}).(*wire.NotModified)
	if !ok || nm.Epoch != epoch {
		t.Fatalf("matching hint: %#v", nm)
	}

	// Fault → new epoch → the stale hint must now yield a full answer
	// stamped with the new epoch.
	if _, err := m.InjectFaults(nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, m, epoch+1)
	rs, ok := wireCall(t, c, &wire.RouteSetReq{EpochHint: epoch, Pairs: [][2]uint32{{0, 1}}}).(*wire.RouteSetResp)
	if !ok || rs.Epoch != epoch+1 {
		t.Fatalf("stale hint: %#v (want epoch %d)", rs, epoch+1)
	}
}

func TestWireErrors(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	c := startWireConn(t, m)
	n := uint32(m.t.NumHosts())

	cases := []struct {
		req  wire.Message
		code uint8
	}{
		{&wire.RouteSetReq{Pairs: [][2]uint32{{0, n}}}, wire.CodeBadRequest},
		{&wire.RouteSetReq{Engine: "no-such-engine", Pairs: [][2]uint32{{0, 1}}}, wire.CodeNotFound},
		{&wire.RouteSetReq{ByJob: true, Job: 999}, wire.CodeNotFound},
		{&wire.EpochResp{Epoch: 1}, wire.CodeBadRequest}, // response type as request
	}
	for i, tc := range cases {
		er, ok := wireCall(t, c, tc.req).(*wire.ErrorResp)
		if !ok || er.Code != tc.code {
			t.Fatalf("case %d (%#v): got %#v, want code %d", i, tc.req, er, tc.code)
		}
	}

	// Errors must not kill the connection.
	if _, ok := wireCall(t, c, wire.EpochReq{}).(*wire.EpochResp); !ok {
		t.Fatal("connection dead after error responses")
	}
}

// TestWireJobRouteSetPrecomputed proves job-mode serving is the
// placement-time cache: the bytes on the connection are the snapshot's
// precomputed bytes, and expanded they cover exactly the job's ordered
// pair set with hops matching the compiled arena.
func TestWireJobRouteSetPrecomputed(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	a, err := m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Current() // the placement is served on return
	jw, ok := st.JobRouteSets[a.ID]
	if !ok {
		t.Fatalf("epoch %d has no precomputed set for job %d", st.Epoch, a.ID)
	}
	if jw.Code != 200 || jw.Pairs != len(a.Hosts)*(len(a.Hosts)-1) {
		t.Fatalf("precomputed frame code=%d pairs=%d", jw.Code, jw.Pairs)
	}

	c := startWireConn(t, m)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMessage(c, &wire.RouteSetReq{ByJob: true, Job: uint64(a.ID)}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, jw.Frame[wire.HeaderSize:]) || byte(typ) != jw.Frame[3] {
		t.Fatal("served job frame differs from the precomputed snapshot bytes")
	}
	msg, err := wire.DecodePayload(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := msg.(*wire.RouteSetFactored)
	if !ok {
		t.Fatalf("job route set answered %T", msg)
	}
	rs := f.Expand()
	want, err := pairListResp(st.Epoch, st.Engine, st.tb.Tables, orderedPairs(a.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	if err := equalRouteSets(rs, want); err != nil {
		t.Fatalf("expanded set differs from the pair list: %v", err)
	}
	for _, p := range rs.Pairs {
		path, err := st.Paths.PackedPath(int(p.Src), int(p.Dst))
		if err != nil {
			t.Fatalf("%d->%d: %v", p.Src, p.Dst, err)
		}
		if !p.OK || len(p.Hops) != len(path) {
			t.Fatalf("%d->%d: ok=%v hops=%d, arena %d", p.Src, p.Dst, p.OK, len(p.Hops), len(path))
		}
		for k, e := range path {
			if p.Hops[k] != uint32(e) {
				t.Fatalf("%d->%d hop %d: %d != %d", p.Src, p.Dst, k, p.Hops[k], uint32(e))
			}
		}
	}
	// The snapshot frame went to the connection as it is, not through
	// the connection's scratch buffer: building the next answer must not
	// write over it.
	frozen := append([]byte(nil), jw.Frame...)
	if probe, ok := wireCall(t, c, wire.EpochReq{}).(*wire.EpochResp); !ok || probe.Epoch != st.Epoch {
		t.Fatalf("epoch probe after a job fetch: %#v", probe)
	}
	if !bytes.Equal(jw.Frame, frozen) {
		t.Fatal("serving the next request overwrote the snapshot's job frame")
	}

	// Freeing the job must evict its precomputed set at the next epoch.
	if err := m.FreeJob(a.ID); err != nil {
		t.Fatal(err)
	}
	if st = m.Current(); st.JobRouteSets[a.ID].Frame != nil {
		t.Fatalf("freed job %d still has a route set in epoch %d", a.ID, st.Epoch)
	}
	// A matching epoch hint must not resurrect it: validation precedes
	// negotiation, so the freed job answers NotFound, never NotModified
	// (which would validate a client cache the server cannot serve).
	er, ok := wireCall(t, c, &wire.RouteSetReq{ByJob: true, Job: uint64(a.ID), EpochHint: st.Epoch}).(*wire.ErrorResp)
	if !ok || er.Code != wire.CodeNotFound {
		t.Fatalf("freed job with matching hint: %#v", er)
	}
}

// TestWireJobFrameBudget pins the encode-time byte budget: a job route
// set that encodes past wire.MaxPayload must be stored as a decodable
// ErrorResp frame (CodeInternal, observation code 500), never as a
// frame every peer rejects unread with ErrTooLarge.
func TestWireJobFrameBudget(t *testing.T) {
	// One more full-length pair than wire.MaxPayload holds: 9 bytes of
	// record and four per hop, every pair on the same hop list.
	hops := make([]uint32, wire.MaxStride+1)
	pairs := make([]wire.PairRoute, wire.MaxPayload/(9+4*len(hops))+1)
	for i := range pairs {
		pairs[i] = wire.PairRoute{Src: uint32(i), Dst: 1, OK: true, Hops: hops}
	}
	big := &wire.RouteSetResp{Epoch: 3, Engine: "dmodk", Routing: "d-mod-k", Pairs: pairs}
	jw := encodeJobFrame(7, len(pairs), big)
	if jw.Code != 500 || jw.Pairs != 0 {
		t.Fatalf("oversized set stored as code=%d pairs=%d", jw.Code, jw.Pairs)
	}
	msg, err := wire.ReadMessage(bytes.NewReader(jw.Frame))
	if err != nil {
		t.Fatalf("stored frame does not decode: %v", err)
	}
	er, ok := msg.(*wire.ErrorResp)
	if !ok || er.Code != wire.CodeInternal {
		t.Fatalf("stored frame decodes to %#v, want CodeInternal ErrorResp", msg)
	}

	// A set inside the budget passes through byte-identical.
	small := &wire.RouteSetResp{Epoch: 3, Engine: "dmodk", Routing: "d-mod-k",
		Pairs: []wire.PairRoute{{Src: 0, Dst: 1, OK: true, Hops: []uint32{2, 4}}}}
	jw = encodeJobFrame(7, 1, small)
	if jw.Code != 200 || jw.Pairs != 1 || !bytes.Equal(jw.Frame, wire.EncodeFrame(small)) {
		t.Fatalf("small set stored as code=%d pairs=%d", jw.Code, jw.Pairs)
	}
}

// TestWireRouteSetEqualsPairList is the differential wall of pairs mode:
// the frame wireRouteSet writes straight from the arena is, byte for
// byte, AppendFrame of the RouteSetResp built one pair at a time through
// PackedPath — on a healthy snapshot and on a faulted one that leaves
// some pairs Broken, self pairs included, behind whatever the
// connection's buffer already holds. It runs on the daemon's D-Mod-K,
// whose healthy tails the closed form computes, and in "32-bit cells" on
// snapshots assembled over minhop-random tables (refused, not repaired,
// under the fault), whose arena stores every column in cells.
func TestWireRouteSetEqualsPairList(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	uplink := m.t.Ports[m.t.Host(2).Up[0]].Link
	testWireRouteSetEqualsPairList(t, m, false, m.Current(), func() *FabricState {
		if _, err := m.InjectFaults([]topo.LinkID{uplink}, nil, 2); err != nil {
			t.Fatal(err)
		}
		return waitEpoch(t, m, 2)
	})
	t.Run("32-bit cells", func(t *testing.T) {
		healthy, err := fabric.Healthy(route.MinHopRandom(m.t, 1))
		if err != nil {
			t.Fatal(err)
		}
		fs := fabric.NewFaultSet(m.t)
		fs.Fail(uplink)
		faulted, err := fs.Refuse(healthy)
		if err != nil {
			t.Fatal(err)
		}
		testWireRouteSetEqualsPairList(t, m, true, m.assemble(1, &fabricTables{Tables: healthy}, nil), func() *FabricState {
			return m.assemble(2, &fabricTables{Tables: faulted, failedLinks: fs.FailedLinks()}, nil)
		})
	})
}

// testWireRouteSetEqualsPairList checks healthy, whose arena stores cells
// exactly when stored, and then the faulted snapshot fault returns.
func testWireRouteSetEqualsPairList(t *testing.T, m *Manager, stored bool, healthy *FabricState, fault func() *FabricState) {
	n := m.t.NumHosts()
	check := func(t *testing.T, st *FabricState) (unserved int) {
		rng := rand.New(rand.NewSource(int64(st.Epoch)))
		var all, batch [][2]uint32
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				all = append(all, [2]uint32{uint32(s), uint32(d)})
			}
			batch = append(batch, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
		}
		for _, pairs := range [][][2]uint32{all, batch, nil} {
			want, err := pairListResp(st.Epoch, st.Engine, st.tb.Tables, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range want.Pairs {
				if !p.OK {
					unserved++
				}
			}
			for _, eng := range []string{"", st.Engine} {
				got, code := m.wireRouteSet([]byte("kept"), st, &wire.RouteSetReq{Engine: eng, Pairs: pairs})
				if code != 200 || !bytes.Equal(got, wire.AppendFrame([]byte("kept"), want)) {
					t.Fatalf("epoch %d, engine %q, %d pairs: code %d, the arena-written frame differs from the encoded pair list", st.Epoch, eng, len(pairs), code)
				}
			}
		}
		return unserved
	}
	t.Run("healthy", func(t *testing.T) {
		if stores := healthy.Paths.NumEntries() > 0; stores != stored {
			t.Fatalf("healthy %s arena stores %d cells", healthy.Routing, healthy.Paths.NumEntries())
		}
		if unserved := check(t, healthy); unserved != 0 {
			t.Fatalf("%d pairs unserved on a healthy fabric", unserved)
		}
	})
	st := fault()
	t.Run("faulted", func(t *testing.T) {
		if unserved := check(t, st); unserved == 0 {
			t.Fatalf("a dead host uplink left every pair served: %+v", st.FailedLinks)
		}
	})
}

// TestServeWireAllocs holds the steady-state serving loop to the two
// allocations a 324-pair request cannot avoid — the decoded request and
// its pair slab: payload, answer and everything between live in the
// connection's scratch.
func TestServeWireAllocs(t *testing.T) {
	m := newManager(t, "324", nil)
	m.Start()
	c := startWireConn(t, m)
	c.SetDeadline(time.Now().Add(30 * time.Second))
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, 324)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(324)), uint32(rng.Intn(324))}
	}
	req, resp := wire.EncodeFrame(&wire.RouteSetReq{Pairs: pairs}), make([]byte, 64<<10)
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, resp[:wire.HeaderSize]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, resp[wire.HeaderSize:][:binary.LittleEndian.Uint32(resp[4:])]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	if msg, err := wire.ReadMessage(bytes.NewReader(resp)); err != nil || len(msg.(*wire.RouteSetResp).Pairs) != len(pairs) {
		t.Fatalf("the measured exchange is not a %d-pair answer: %v", len(pairs), err)
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 2 {
		t.Errorf("one 324-pair request through ServeWire: %.0f allocations, want <= 2", allocs)
	}
}

// TestWireJSONBinaryEquivalence is the cross-protocol conformance wall:
// on both a healthy and a faulted fabric, every /v1/route answer must —
// after canonicalizing JSON hops back to packed entries — byte-compare
// with its binary RouteSet counterpart, 503s must map to OK=false, and
// /v1/order must equal the binary order. A divergence means the two
// protocols serve different fabrics.
func TestWireJSONBinaryEquivalence(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	c := startWireConn(t, m)
	n := m.t.NumHosts()

	check := func(t *testing.T) {
		st := m.Current()
		var pairs [][2]uint32
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				pairs = append(pairs, [2]uint32{uint32(s), uint32(d)})
			}
		}
		rs, ok := wireCall(t, c, &wire.RouteSetReq{Pairs: pairs}).(*wire.RouteSetResp)
		if !ok {
			t.Fatalf("route set: %#v", rs)
		}
		if rs.Epoch != st.Epoch {
			t.Fatalf("binary epoch %d, snapshot %d", rs.Epoch, st.Epoch)
		}
		for _, p := range rs.Pairs {
			req := httptest.NewRequest("GET",
				fmt.Sprintf("/v1/route?src=%d&dst=%d", p.Src, p.Dst), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				var doc RouteDoc
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				if doc.Epoch != rs.Epoch {
					t.Fatalf("%d->%d: JSON epoch %d, binary %d", p.Src, p.Dst, doc.Epoch, rs.Epoch)
				}
				if doc.Engine != rs.Engine || doc.Routing != rs.Routing {
					t.Fatalf("%d->%d: JSON %s/%s, binary %s/%s",
						p.Src, p.Dst, doc.Engine, doc.Routing, rs.Engine, rs.Routing)
				}
				// Canonicalize: JSON hop (link, up) -> packed entry.
				if !p.OK {
					t.Fatalf("%d->%d: JSON 200 but binary not-OK", p.Src, p.Dst)
				}
				if len(doc.Hops) != len(p.Hops) {
					t.Fatalf("%d->%d: JSON %d hops, binary %d", p.Src, p.Dst, len(doc.Hops), len(p.Hops))
				}
				for k, hop := range doc.Hops {
					packed := uint32(hop.Link) << 1
					if hop.Up {
						packed |= 1
					}
					if packed != p.Hops[k] {
						t.Fatalf("%d->%d hop %d: JSON packs to %d, binary %d",
							p.Src, p.Dst, k, packed, p.Hops[k])
					}
				}
			case http.StatusServiceUnavailable:
				if p.OK {
					t.Fatalf("%d->%d: JSON 503 but binary OK", p.Src, p.Dst)
				}
			default:
				t.Fatalf("%d->%d: JSON status %d: %s", p.Src, p.Dst, rec.Code, rec.Body.String())
			}
		}

		// Order: JSON vs binary.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/order", nil))
		var od OrderDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &od); err != nil {
			t.Fatal(err)
		}
		or, ok := wireCall(t, c, wire.OrderReq{}).(*wire.OrderResp)
		if !ok || or.Epoch != od.Epoch || or.Label != od.Label || len(or.HostOf) != len(od.HostOf) {
			t.Fatalf("order mismatch: JSON %+v, binary %#v", od, or)
		}
		for i := range od.HostOf {
			if uint32(od.HostOf[i]) != or.HostOf[i] {
				t.Fatalf("order host_of[%d]: JSON %d, binary %d", i, od.HostOf[i], or.HostOf[i])
			}
		}
	}

	t.Run("healthy", check)

	// Fault a host uplink plus two fabric links: some pairs must go
	// 503/not-OK and the rest still have to match hop for hop.
	uplink := m.t.Ports[m.t.Host(2).Up[0]].Link
	if _, err := m.InjectFaults([]topo.LinkID{uplink}, nil, 2); err != nil {
		t.Fatal(err)
	}
	st := waitEpoch(t, m, 2)
	if len(st.Unroutable) == 0 {
		t.Fatalf("uplink kill left no unroutable host: %+v", st.FailedLinks)
	}
	t.Run("faulted", check)
}

// TestWireConnsClosedOnManagerClose proves Close unblocks serving
// loops: a wire connection idle in a read must be force-closed.
func TestWireConnsClosedOnManagerClose(t *testing.T) {
	m := newManager(t, "128", nil)
	m.Start()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.ServeWire(srv)
	}()
	// One round-trip so the conn is definitely registered.
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteMessage(cli, wire.EpochReq{}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(cli); err != nil {
		t.Fatal(err)
	}
	m.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWire still running after Close")
	}
	// And a post-Close conn must be refused immediately.
	srv2, cli2 := net.Pipe()
	go m.ServeWire(srv2)
	cli2.SetDeadline(time.Now().Add(5 * time.Second))
	wire.WriteMessage(cli2, wire.EpochReq{})
	if _, err := wire.ReadMessage(cli2); err == nil {
		t.Fatal("closed manager served a wire request")
	}
	cli.Close()
	cli2.Close()
	_ = sched.JobID(0)
}

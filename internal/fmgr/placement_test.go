package fmgr

import (
	"strings"
	"testing"
	"time"

	"fattree/internal/obs"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// kinds lists the journal's records from seq on as "kind/outcome".
func kinds(m *Manager, seq uint64) []string {
	recs, _ := m.EventsSince(seq, 0)
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Kind + "/" + r.Outcome
	}
	return out
}

func nextSeq(m *Manager) uint64 {
	recs, _ := m.Events(1)
	if len(recs) == 0 {
		return 0
	}
	return recs[0].Seq + 1
}

// TestPlacementOnQuietFabric: with no fault awaiting its tables, a
// placement is served when AllocJob returns — swapped in with the clock
// standing still, the tables of the previous epoch shared, nothing
// rebuilt or re-proven — and a free likewise. With a fault window open
// the reply comes at once and the job is published once, at the window's
// close, with the window's tables — whose speculative build it did not
// discard.
func TestPlacementOnQuietFabric(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = 25 * ms })
	r.m.Start()
	c := startWireConn(t, r.m)
	before := r.m.Current()

	a, err := r.m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	st := r.m.Current()
	if st.Epoch != 2 || len(st.Jobs) != 1 || st.Jobs[0].ID != a.ID || st.JobRouteSets[a.ID].Epoch != 2 {
		t.Fatalf("AllocJob returned with epoch %d serving %d jobs, frame stamped %d", st.Epoch, len(st.Jobs), st.JobRouteSets[a.ID].Epoch)
	}
	if st.tb != before.tb || st.Paths != before.Paths || st.HSD != before.HSD {
		t.Fatal("a placement on a quiet fabric did not share the previous epoch's tables")
	}
	if got := strings.Join(kinds(r.m, 0), " "); got != "alloc/ok swap/ok" {
		t.Fatalf("journal reads %q, want alloc/ok swap/ok", got)
	}
	if _, swap := r.lifecycle(2); !strings.Contains(swap.Detail, " jobs=1 tables=reused wire_precompute_us=") {
		t.Fatalf("swap detail %q", swap.Detail)
	}
	f, ok := wireCall(t, c, &wire.RouteSetReq{ByJob: true, Job: uint64(a.ID)}).(*wire.RouteSetFactored)
	if !ok || f.Epoch != 2 || len(f.Hosts) != 8 {
		t.Fatalf("job-mode request right after AllocJob: %#v", f)
	}
	r.want(0, 1, 0, 0)
	if n := r.m.cfg.Metrics.MustHistogram("fmgr_reroute_latency_us", nil).Count(); n != 0 {
		t.Fatalf("fmgr_reroute_latency_us observed %d placements", n)
	}
	if got := r.counter("fmgr_reroutes_total"); got != 0 {
		t.Fatalf("fmgr_reroutes_total = %d after a placement", got)
	}

	if err := r.m.FreeJob(a.ID); err != nil {
		t.Fatal(err)
	}
	if st := r.m.Current(); st.Epoch != 3 || len(st.Jobs) != 0 || len(st.JobRouteSets) != 0 || st.tb != before.tb {
		t.Fatalf("FreeJob returned with epoch %d serving %d jobs", st.Epoch, len(st.Jobs))
	}
	r.want(0, 2, 0, 0)
	if now := r.clk.Now(); !now.Equal(r.t0) {
		t.Fatalf("the clock moved to %v", now.Sub(r.t0))
	}

	// The same inside a fault window.
	r.sent += 2
	seq := nextSeq(r.m)
	link := fabricLink(t, r.m.t, 0)
	r.inject([]topo.LinkID{link}, nil)
	r.want(1, 2, 1, 0)
	r.advance(10 * ms)
	r.sent++
	b, err := r.m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if st := r.m.Current(); st.Epoch != 3 || len(st.Jobs) != 0 {
		t.Fatalf("a placement inside a fault window was published early: epoch %d, %d jobs", st.Epoch, len(st.Jobs))
	}
	if er, ok := wireCall(t, c, &wire.RouteSetReq{ByJob: true, Job: uint64(b.ID)}).(*wire.ErrorResp); !ok || er.Code != wire.CodeNotFound {
		t.Fatalf("job-mode request inside the window: %#v", er)
	}
	r.advance(15*ms - 1)
	r.want(1, 2, 1, 0)
	r.advance(1)
	r.want(1, 3, 1, 0) // one build, begun at the fault, kept through the placement
	st = r.m.Current()
	if at := r.swaps[2].at; at != 25*ms || st.Epoch != 4 {
		t.Fatalf("epoch %d swapped at %v, want epoch 4 at 25ms: the placement moved the window", st.Epoch, at)
	}
	if len(st.FailedLinks) != 1 || st.FailedLinks[0] != link || len(st.Jobs) != 1 || st.JobRouteSets[b.ID].Epoch != 4 {
		t.Fatalf("epoch 4: failed %v, %d jobs, frame stamped %d; want the fault and the job together", st.FailedLinks, len(st.Jobs), st.JobRouteSets[b.ID].Epoch)
	}
	if got := strings.Join(kinds(r.m, seq), " "); got != "fault/ok alloc/ok reroute/ok validate/ok swap/ok" {
		t.Fatalf("journal of the window reads %q", got)
	}
	if _, swap := r.lifecycle(4); !strings.HasSuffix(swap.Detail, " jobs=1 tables=rebuilt speculated=true wait_us=25000") {
		t.Fatalf("swap detail %q", swap.Detail)
	}
	want, err := pairListResp(4, st.Engine, st.tb.Tables, orderedPairs(b.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	f, ok = wireCall(t, c, &wire.RouteSetReq{ByJob: true, Job: uint64(b.ID)}).(*wire.RouteSetFactored)
	if !ok {
		t.Fatalf("job-mode request after the window: %#v", f)
	}
	if err := equalRouteSets(f.Expand(), want); err != nil {
		t.Fatalf("the job laid over the held tables is not served from the faulted arena: %v", err)
	}
}

// TestEventsThatChangeNothingPublishNothing: a refused placement, a free
// of an unknown job and a fail_random draw that fails are journaled as
// errors and cost nothing else — no rebuild, no epoch, no swap for any
// client to chase.
func TestEventsThatChangeNothingPublishNothing(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", nil)
	announced := 0
	inner := r.m.OnSwap
	r.m.OnSwap = func(st *FabricState) { announced++; inner(st) }
	r.m.Start()

	if _, err := r.m.AllocJob(10*r.m.t.NumHosts(), false); err == nil {
		t.Fatal("oversized job allocated")
	}
	if _, err := r.m.AllocJob(0, false); err == nil {
		t.Fatal("empty job allocated")
	}
	if err := r.m.FreeJob(77); err == nil {
		t.Fatal("unknown job freed")
	}
	r.sent += 3
	n, err := r.m.InjectFaults(nil, nil, 10*len(r.m.t.Links))
	if err != nil {
		t.Fatal(err)
	}
	r.sent += n
	r.settle()
	r.advance(time.Second)

	r.want(0, 0, 0, 0)
	if st := r.m.Current(); st.Epoch != 1 || announced != 1 {
		t.Fatalf("epoch %d after %d announcements, want the initial snapshot only", st.Epoch, announced)
	}
	if got := strings.Join(kinds(r.m, 0), " "); got != "alloc/error alloc/error free/error fault_random/error" {
		t.Fatalf("journal reads %q", got)
	}
	r.clk.mu.Lock()
	armed := r.clk.at
	r.clk.mu.Unlock()
	if !armed.IsZero() {
		t.Fatalf("the loop is waiting for %v with nothing to do", armed.Sub(r.t0))
	}
}

// TestWireJobHintAgainstStamp: job mode holds the client's hint against
// the epoch its frame was computed at. Other jobs coming and going leave
// the frame — the very bytes — and answer a client that has seen its
// stamp with NotModified and the epoch to pin, a 304 on the route_set
// endpoint; a reroute restamps it.
func TestWireJobHintAgainstStamp(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	c := startWireConn(t, m)
	a, err := m.AllocJob(8, false)
	if err != nil {
		t.Fatal(err)
	}
	placed := m.Current().JobRouteSets[a.ID]
	b, err := m.AllocJob(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeJob(b.ID); err != nil {
		t.Fatal(err)
	}
	st := m.Current()
	jw := st.JobRouteSets[a.ID]
	if st.Epoch != 4 || jw.Epoch != 2 || &jw.Frame[0] != &placed.Frame[0] {
		t.Fatalf("epoch %d serves job %d stamped %d; want epoch 4 carrying the frame of epoch 2 as it is", st.Epoch, a.ID, jw.Epoch)
	}
	req := func(hint uint64) wire.Message {
		return wireCall(t, c, &wire.RouteSetReq{ByJob: true, Job: uint64(a.ID), EpochHint: hint})
	}
	for _, hint := range []uint64{2, 3, 4} {
		if nm, ok := req(hint).(*wire.NotModified); !ok || nm.Epoch != 4 {
			t.Fatalf("hint %d: %#v, want NotModified at epoch 4", hint, nm)
		}
	}
	for _, hint := range []uint64{0, 1} {
		if f, ok := req(hint).(*wire.RouteSetFactored); !ok || f.Epoch != 2 {
			t.Fatalf("hint %d: %#v, want the frame stamped 2", hint, f)
		}
	}
	wireCall(t, c, wire.EpochReq{}) // answered after the last route_set request was observed
	code := func(class string) int64 {
		return m.cfg.Metrics.Counter(obs.Labeled("fmgr_wire_requests_total", "endpoint", "route_set", "code", class)).Value()
	}
	if code("3xx") != 3 || code("2xx") != 2 {
		t.Fatalf("route_set RED codes: %d 3xx, %d 2xx; want 3 and 2", code("3xx"), code("2xx"))
	}

	if _, err := m.InjectFaults([]topo.LinkID{fabricLink(t, m.t, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st = waitEpoch(t, m, 5); st.JobRouteSets[a.ID].Epoch != 5 {
		t.Fatalf("after a reroute job %d is stamped %d, want 5", a.ID, st.JobRouteSets[a.ID].Epoch)
	}
	if f, ok := req(4).(*wire.RouteSetFactored); !ok || f.Epoch != 5 {
		t.Fatalf("hint 4 after the reroute: %#v, want the frame stamped 5", f)
	}
	if _, ok := req(5).(*wire.NotModified); !ok {
		t.Fatal("hint 5 after the reroute: want NotModified")
	}
}

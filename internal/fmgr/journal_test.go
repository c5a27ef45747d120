package fmgr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fattree/internal/obs"
	"fattree/internal/schema"
)

func TestJournalRingWrap(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(schema.Event{Kind: schema.EvFault, Detail: fmt.Sprintf("link %d", i)})
	}
	recs, dropped := j.Snapshot(0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(recs) != 4 {
		t.Fatalf("kept %d records, want 4", len(recs))
	}
	for i, r := range recs {
		wantSeq := uint64(6 + i)
		if r.Seq != wantSeq {
			t.Fatalf("record %d: seq %d, want %d (out of order?)", i, r.Seq, wantSeq)
		}
		if want := fmt.Sprintf("link %d", 6+i); r.Detail != want {
			t.Fatalf("record %d: detail %q, want %q", i, r.Detail, want)
		}
		if r.TimeUnixNS == 0 {
			t.Fatalf("record %d: time not stamped", i)
		}
	}
	// Limited snapshot returns the newest n, still oldest first.
	recs, _ = j.Snapshot(2)
	if len(recs) != 2 || recs[0].Seq != 8 || recs[1].Seq != 9 {
		t.Fatalf("Snapshot(2) = %+v, want seqs 8,9", recs)
	}
}

func TestJournalPartialAndNil(t *testing.T) {
	j := NewJournal(8)
	j.Record(schema.Event{Kind: schema.EvSwap})
	j.Record(schema.Event{Kind: schema.EvFault})
	recs, dropped := j.Snapshot(0)
	if dropped != 0 || len(recs) != 2 || recs[0].Kind != schema.EvSwap || recs[1].Kind != schema.EvFault {
		t.Fatalf("partial ring: dropped=%d recs=%+v", dropped, recs)
	}
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j.Len())
	}
	var nilJ *Journal
	nilJ.Record(schema.Event{Kind: schema.EvFault})
	if recs, dropped := nilJ.Snapshot(0); recs != nil || dropped != 0 || nilJ.Len() != 0 {
		t.Fatal("nil journal must no-op")
	}
}

// TestEventsReplayFaultLifecycle injects a fault over HTTP and checks
// that GET /v1/events replays the full fault → reroute → validate →
// swap lifecycle in order, stamped with the new epoch.
func TestEventsReplayFaultLifecycle(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	link := fabricLink(t, m.t, 0)
	req := httptest.NewRequest("POST", "/v1/faults",
		strings.NewReader(fmt.Sprintf(`{"fail":[%d]}`, link)))
	if rec, body := do(t, h, req); rec.Code != http.StatusAccepted {
		t.Fatalf("faults: %d %v", rec.Code, body)
	}
	waitEpoch(t, m, 2)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/events", nil))
	if rec.Code != 200 {
		t.Fatalf("events: %d %s", rec.Code, rec.Body.String())
	}
	var doc schema.EventsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != schema.Events || doc.Epoch != 2 || doc.Dropped != 0 {
		t.Fatalf("events header: %+v", doc)
	}
	var kinds []string
	for _, e := range doc.Events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{schema.EvFault, schema.EvReroute, schema.EvValidate, schema.EvSwap}
	pos := -1
	for _, k := range want {
		next := -1
		for i := pos + 1; i < len(kinds); i++ {
			if kinds[i] == k {
				next = i
				break
			}
		}
		if next < 0 {
			t.Fatalf("lifecycle %v not found in order within %v", want, kinds)
		}
		pos = next
	}
	for _, e := range doc.Events {
		switch e.Kind {
		case schema.EvReroute, schema.EvValidate, schema.EvSwap:
			if e.Epoch != 2 || e.Outcome != schema.OutcomeOK {
				t.Fatalf("%s record: %+v, want epoch 2 outcome ok", e.Kind, e)
			}
		case schema.EvFault:
			if want := fmt.Sprintf("link %d", link); e.Detail != want {
				t.Fatalf("fault detail %q, want %q", e.Detail, want)
			}
		}
	}
	// Reroute duration must be recorded.
	for _, e := range doc.Events {
		if e.Kind == schema.EvReroute && e.DurationUS < 0 {
			t.Fatalf("reroute duration %d < 0", e.DurationUS)
		}
	}

	// A limited query keeps the newest record.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/events?limit=1", nil))
	var one schema.EventsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Events) != 1 || one.Events[0].Kind != schema.EvSwap {
		t.Fatalf("events?limit=1 = %+v, want just the swap", one.Events)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	// Drive one request so the RED family exists.
	if rec, _ := get(t, h, "/v1/route?src=0&dst=9"); rec.Code != 200 {
		t.Fatalf("route: %d", rec.Code)
	}

	// Default stays JSON.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	name := obs.Labeled("fmgr_http_requests_total",
		"endpoint", "GET /v1/route", "code", "2xx")
	if snap.Counters[name] != 1 {
		t.Fatalf("RED counter %q = %d, want 1 (counters: %v)", name, snap.Counters[name], snap.Counters)
	}

	// Accept: text/plain selects Prometheus exposition.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("negotiated content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE fmgr_epoch gauge",
		"# TYPE fmgr_http_requests_total counter",
		`fmgr_http_requests_total{endpoint="GET /v1/route",code="2xx"} 1`,
		`fmgr_http_request_duration_us_bucket{endpoint="GET /v1/route",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// ?format=prometheus works without the header; ?format=json forces
	// JSON even with a text Accept.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("?format=prometheus content type %q", ct)
	}
	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("?format=json content type %q", ct)
	}
}

// TestHTTPRequestsCountedOnce: every /v1 request lands in exactly one
// series of the fmgr_http_requests_total family — the per-endpoint RED
// counters — so the family sums to the number of requests, in the JSON
// snapshot and in the Prometheus exposition alike.
func TestHTTPRequestsCountedOnce(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	urls := []string{"/v1/route?src=0&dst=9", "/v1/route?src=1&dst=2", "/v1/order", "/v1/hsd", "/v1/events", "/v1/route?src=0&dst=9999"}
	for _, url := range urls {
		get(t, h, url)
	}
	const family = "fmgr_http_requests_total"

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for name, v := range snap.Counters {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	if sum != int64(len(urls)) {
		t.Fatalf("%s sums to %d over %d requests (counters: %v)", family, sum, len(urls), snap.Counters)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	var prom float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, family+" ") && !strings.HasPrefix(line, family+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		prom += v
	}
	if prom != float64(len(urls)) {
		t.Fatalf("exposed %s sums to %v over %d requests:\n%s", family, prom, len(urls), rec.Body.String())
	}
}

// TestRequestSpans wires a span tracer into the manager and checks the
// request path and the rebuild loop both emit linked spans.
func TestRequestSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	m := newManager(t, "rlft2:4,8", func(c *Config) {
		c.Spans = obs.NewSpanTracer(tr, 1, "fmgr-test")
	})
	m.Start()
	h := m.Handler()

	if rec, _ := get(t, h, "/v1/route?src=0&dst=9"); rec.Code != 200 {
		t.Fatalf("route: %d", rec.Code)
	}
	link := fabricLink(t, m.t, 0)
	req := httptest.NewRequest("POST", "/v1/faults",
		strings.NewReader(fmt.Sprintf(`{"fail":[%d]}`, link)))
	if rec, _ := do(t, h, req); rec.Code != http.StatusAccepted {
		t.Fatalf("faults: %d", rec.Code)
	}
	waitEpoch(t, m, 2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{
		`"GET /v1/route"`, `"decode"`, `"snapshot"`, `"lookup"`, `"encode"`,
		`"rebuild"`, `"reroute"`, `"engine_tables"`,
		`"shift_hsd"`, `"validate"`, `"trace_id"`, `"parent_id"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}

// TestSpanSampling checks that SpanSample=N keeps one in N request
// traces.
func TestSpanSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	m := newManager(t, "rlft2:4,8", func(c *Config) {
		c.Spans = obs.NewSpanTracer(tr, 1, "fmgr-test")
		c.SpanSample = 4
	})
	m.Start()
	h := m.Handler()
	for i := 0; i < 8; i++ {
		if rec, _ := get(t, h, "/v1/route?src=0&dst=9"); rec.Code != 200 {
			t.Fatalf("route %d: %d", i, rec.Code)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"GET /v1/route"`); got != 2 {
		t.Fatalf("sampled %d route traces out of 8 at 1-in-4, want 2", got)
	}
}

func TestJournalSnapshotSince(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(schema.Event{Kind: schema.EvFault, Detail: fmt.Sprintf("link %d", i)})
	}
	// Ring keeps seqs 6..9. A poller resuming from seq 8 gets 8 and 9
	// with nothing dropped.
	recs, dropped := j.SnapshotSince(8, 0)
	if dropped != 0 || len(recs) != 2 || recs[0].Seq != 8 || recs[1].Seq != 9 {
		t.Fatalf("since 8: %d dropped, %+v", dropped, recs)
	}
	// A poller that fell behind (since 2) lost seqs 2..5.
	recs, dropped = j.SnapshotSince(2, 0)
	if dropped != 4 || len(recs) != 4 || recs[0].Seq != 6 {
		t.Fatalf("since 2: %d dropped, %d recs starting %d; want 4 dropped, 4 recs from 6",
			dropped, len(recs), recs[0].Seq)
	}
	// Limit takes the OLDEST matching n so a poller pages forward.
	recs, dropped = j.SnapshotSince(6, 2)
	if dropped != 0 || len(recs) != 2 || recs[0].Seq != 6 || recs[1].Seq != 7 {
		t.Fatalf("since 6 limit 2: %d dropped, %+v", dropped, recs)
	}
	// Fully caught up: nothing to return, nothing dropped.
	recs, dropped = j.SnapshotSince(10, 0)
	if dropped != 0 || len(recs) != 0 {
		t.Fatalf("since 10: %d dropped, %+v, want empty", dropped, recs)
	}
	// Beyond the head is clamped.
	recs, dropped = j.SnapshotSince(99, 0)
	if dropped != 0 || len(recs) != 0 {
		t.Fatalf("since 99: %d dropped, %+v, want empty", dropped, recs)
	}
	// Unwrapped ring (fewer records than capacity).
	j2 := NewJournal(8)
	for i := 0; i < 3; i++ {
		j2.Record(schema.Event{Kind: schema.EvAlloc})
	}
	recs, dropped = j2.SnapshotSince(1, 0)
	if dropped != 0 || len(recs) != 2 || recs[0].Seq != 1 {
		t.Fatalf("unwrapped since 1: %d dropped, %+v", dropped, recs)
	}
	// Nil journal no-ops.
	var nilJ *Journal
	if recs, dropped = nilJ.SnapshotSince(0, 0); recs != nil || dropped != 0 {
		t.Fatal("nil journal must no-op")
	}
}

// TestEventsSinceHTTP drives the ?limit and ?since_seq query filters.
func TestEventsSinceHTTP(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	link := fabricLink(t, m.t, 0)
	req := httptest.NewRequest("POST", "/v1/faults",
		strings.NewReader(fmt.Sprintf(`{"fail":[%d]}`, link)))
	if rec, body := do(t, h, req); rec.Code != http.StatusAccepted {
		t.Fatalf("faults: %d %v", rec.Code, body)
	}
	waitEpoch(t, m, 2)

	fetch := func(url string) schema.EventsDoc {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
		}
		var doc schema.EventsDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	all := fetch("/v1/events")
	if len(all.Events) < 2 {
		t.Fatalf("expected a fault lifecycle, got %+v", all.Events)
	}
	// ?limit keeps the newest records.
	lim := fetch("/v1/events?limit=1")
	if len(lim.Events) != 1 || lim.Events[0].Seq != all.Events[len(all.Events)-1].Seq {
		t.Fatalf("limit=1 = %+v, want the newest record", lim.Events)
	}
	// ?since_seq resumes after a seen seq: oldest matching first.
	mid := all.Events[1].Seq
	inc := fetch(fmt.Sprintf("/v1/events?since_seq=%d", mid))
	if len(inc.Events) != len(all.Events)-1 || inc.Events[0].Seq != mid {
		t.Fatalf("since_seq=%d returned %d events starting %d, want %d starting %d",
			mid, len(inc.Events), inc.Events[0].Seq, len(all.Events)-1, mid)
	}
	// since_seq with limit pages forward from the oldest match.
	page := fetch(fmt.Sprintf("/v1/events?since_seq=%d&limit=1", mid))
	if len(page.Events) != 1 || page.Events[0].Seq != mid {
		t.Fatalf("since_seq+limit = %+v, want just seq %d", page.Events, mid)
	}
	// Caught-up poller sees an empty (non-null) list.
	tail := all.Events[len(all.Events)-1].Seq + 1
	if doc := fetch(fmt.Sprintf("/v1/events?since_seq=%d", tail)); len(doc.Events) != 0 || doc.Dropped != 0 {
		t.Fatalf("caught-up poll = %+v", doc)
	}
	if rec, _ := get(t, h, "/v1/events?since_seq=bad"); rec.Code != http.StatusBadRequest {
		t.Fatalf("since_seq=bad: %d, want 400", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/events?limit=bad"); rec.Code != http.StatusBadRequest {
		t.Fatalf("limit=bad: %d, want 400", rec.Code)
	}
}

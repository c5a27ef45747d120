package fmgr

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fattree/internal/obs"
	"fattree/internal/schema"
)

func get(tb testing.TB, h http.Handler, url string) (*httptest.ResponseRecorder, map[string]interface{}) {
	tb.Helper()
	return do(tb, h, httptest.NewRequest("GET", url, nil))
}

func do(tb testing.TB, h http.Handler, req *http.Request) (*httptest.ResponseRecorder, map[string]interface{}) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]interface{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			tb.Fatalf("non-JSON body (%d): %q", rec.Code, rec.Body.String())
		}
	}
	return rec, body
}

func TestHandlerRoute(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/route?src=0&dst=9", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc RouteDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != schema.Route || doc.Epoch != 1 || doc.Src != 0 || doc.Dst != 9 {
		t.Fatalf("bad doc header: %+v", doc)
	}
	want, err := lftOf(m.Current()).Trace(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Hops) != len(want) {
		t.Fatalf("%d hops, want %d", len(doc.Hops), len(want))
	}
	for i, hop := range doc.Hops {
		if hop.Link != int(want[i].Link) || hop.Up != want[i].Up {
			t.Fatalf("hop %d: %+v vs %+v", i, hop, want[i])
		}
		if hop.From == "" || hop.To == "" {
			t.Fatalf("hop %d missing node labels: %+v", i, hop)
		}
	}

	// src == dst: empty path, still OK.
	rec, body := get(t, h, "/v1/route?src=3&dst=3")
	if rec.Code != http.StatusOK || len(body["hops"].([]interface{})) != 0 {
		t.Fatalf("self route: %d %v", rec.Code, body)
	}
	// Parameter validation.
	for _, u := range []string{"/v1/route", "/v1/route?src=0", "/v1/route?src=0&dst=bad", "/v1/route?src=0&dst=4096"} {
		if rec, _ := get(t, h, u); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", u, rec.Code)
		}
	}
	// ?engine= names the daemon's one engine or is left out; any other
	// registry name is a 404 that names both.
	for _, q := range []string{"&engine=", "&engine=dmodk"} {
		if rec, body := get(t, h, "/v1/route?src=0&dst=9"+q); rec.Code != http.StatusOK || body["engine"] != "dmodk" {
			t.Fatalf("route%s: %d %v", q, rec.Code, body)
		}
	}
	rec, body = get(t, h, "/v1/route?src=0&dst=9&engine=minhop-random")
	if msg, _ := body["error"].(string); rec.Code != http.StatusNotFound || !strings.Contains(msg, `"minhop-random"`) || !strings.Contains(msg, `"dmodk"`) {
		t.Fatalf("route under another engine: %d %q", rec.Code, msg)
	}
}

func TestHandlerOrderHSDFabricHealthMetrics(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	rec, body := get(t, h, "/v1/order")
	if rec.Code != 200 || body["schema"] != schema.Order || body["label"] != "topology" {
		t.Fatalf("order: %d %v", rec.Code, body)
	}
	if n := len(body["host_of"].([]interface{})); n != m.t.NumHosts() {
		t.Fatalf("order lists %d hosts, want %d", n, m.t.NumHosts())
	}

	rec, body = get(t, h, "/v1/hsd")
	if rec.Code != 200 || body["contention_free"] != true || body["max_hsd"].(float64) != 1 {
		t.Fatalf("hsd: %d %v", rec.Code, body)
	}

	rec, body = get(t, h, "/v1/fabric")
	if rec.Code != 200 || body["schema"] != "fattree-fabric/v1" {
		t.Fatalf("fabric: %d %v", rec.Code, body)
	}
	if body["hosts"].(float64) != 32 {
		t.Fatalf("fabric hosts: %v", body["hosts"])
	}

	rec, body = get(t, h, "/healthz")
	if rec.Code != 200 || body["ok"] != true {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}

	rec, _ = get(t, h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Gauges["fmgr_epoch"]; !ok {
		t.Fatalf("metrics snapshot missing fmgr_epoch: %v", snap.Gauges)
	}
}

func TestHandlerFaultsAndRouteDegradation(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	host0 := m.t.Host(0)
	uplink := int(m.t.Ports[host0.Up[0]].Link)
	req := httptest.NewRequest("POST", "/v1/faults",
		strings.NewReader(fmt.Sprintf(`{"fail":[%d]}`, uplink)))
	rec, body := do(t, h, req)
	if rec.Code != http.StatusAccepted || body["accepted"].(float64) != 1 {
		t.Fatalf("faults: %d %v", rec.Code, body)
	}
	waitEpoch(t, m, 2)

	if rec, _ := get(t, h, "/v1/route?src=0&dst=9"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("route to unroutable host: %d, want 503", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/route?src=1&dst=9"); rec.Code != http.StatusOK {
		t.Fatalf("unaffected route: %d, want 200", rec.Code)
	}

	// broken_pairs means the same everywhere: unserved pairs between
	// routable hosts. A lone host-uplink fault leaves none, although
	// every pair touching host 0 is broken in the arena.
	_, hsdDoc := get(t, h, "/v1/hsd")
	_, fabricDoc := get(t, h, "/v1/fabric")
	if hsdDoc["epoch"] != fabricDoc["epoch"] {
		t.Fatalf("epoch moved between reads: hsd %v, fabric %v", hsdDoc["epoch"], fabricDoc["epoch"])
	}
	faults := fabricDoc["faults"].(map[string]interface{})
	if hsdDoc["broken_pairs"] != faults["broken_pairs"] || hsdDoc["broken_pairs"].(float64) != 0 {
		t.Fatalf("broken_pairs: /v1/hsd %v, /v1/fabric %v, want both 0", hsdDoc["broken_pairs"], faults["broken_pairs"])
	}
	if n := len(faults["unroutable_hosts"].([]interface{})); hsdDoc["unroutable_hosts"].(float64) != 1 || n != 1 {
		t.Fatalf("unroutable hosts: /v1/hsd %v, /v1/fabric %d, want 1", hsdDoc["unroutable_hosts"], n)
	}

	// Bad requests.
	req = httptest.NewRequest("POST", "/v1/faults", strings.NewReader("not json"))
	if rec, _ := do(t, h, req); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad faults JSON: %d", rec.Code)
	}
	req = httptest.NewRequest("POST", "/v1/faults", strings.NewReader(`{"fail":[99999]}`))
	if rec, _ := do(t, h, req); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range fault link: %d", rec.Code)
	}
}

func TestHandlerJobs(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	g := m.alloc.Granule()

	req := httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"size":%d,"aligned":true}`, 2*g)))
	rec, body := do(t, h, req)
	if rec.Code != 200 || body["contention_free"] != true || body["isolated"] != true {
		t.Fatalf("job alloc: %d %v", rec.Code, body)
	}
	id := int(body["id"].(float64))

	rec, body = get(t, h, "/v1/jobs")
	if rec.Code != 200 || len(body["jobs"].([]interface{})) != 1 {
		t.Fatalf("jobs list: %d %v", rec.Code, body)
	}

	req = httptest.NewRequest("DELETE", fmt.Sprintf("/v1/jobs?id=%d", id), nil)
	if rec, _ := do(t, h, req); rec.Code != 200 {
		t.Fatalf("job free: %d", rec.Code)
	}
	req = httptest.NewRequest("DELETE", fmt.Sprintf("/v1/jobs?id=%d", id), nil)
	if rec, _ := do(t, h, req); rec.Code != http.StatusNotFound {
		t.Fatalf("double free: %d, want 404", rec.Code)
	}
	// Unsatisfiable request: 409, not 500.
	req = httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"size":100000}`))
	if rec, _ := do(t, h, req); rec.Code != http.StatusConflict {
		t.Fatalf("oversized job: %d, want 409", rec.Code)
	}
}

func TestHandlerMaxInflightGate(t *testing.T) {
	m := newManager(t, "rlft2:4,8", func(c *Config) {
		c.MaxInflight = 2
	})
	m.Start()
	h := m.Handler()

	// Fill the gate so the next /v1 request is over the cap.
	m.gate <- struct{}{}
	m.gate <- struct{}{}
	rec, body := get(t, h, "/v1/route?src=0&dst=9")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%v)", rec.Code, body)
	}
	if got := m.cfg.Metrics.Counter("fmgr_http_throttled_total").Value(); got != 1 {
		t.Fatalf("fmgr_http_throttled_total = %d, want 1", got)
	}
	// healthz bypasses the gate.
	if rec, _ := get(t, h, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz gated: %d", rec.Code)
	}
	<-m.gate
	<-m.gate
	if rec, _ := get(t, h, "/v1/route?src=0&dst=9"); rec.Code != 200 {
		t.Fatalf("route after gate drained: %d", rec.Code)
	}
}

// stalledBody is a request body whose Read blocks until release is
// closed, so the handler decoding it cannot finish inside any budget.
type stalledBody struct{ release chan struct{} }

func (b stalledBody) Read([]byte) (int, error) {
	<-b.release
	return 0, io.EOF
}

// TestHandlerRequestTimeout holds the handler on its body until the
// answer is recorded: the budget always loses, however loaded the box —
// a 1 ns budget against a free-running handler did not, under -race.
func TestHandlerRequestTimeout(t *testing.T) {
	m := newManager(t, "rlft2:4,8", func(c *Config) {
		c.RequestTimeout = time.Millisecond
	})
	m.Start()
	body := stalledBody{make(chan struct{})}
	rec, _ := do(t, m.Handler(), httptest.NewRequest("POST", "/v1/faults", body))
	close(body.release)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from the timeout handler", rec.Code)
	}
}

// TestHandlerStrictBodies: a body field the request type does not have is
// a 400 that names it, not a default silently applied — a misspelt
// "fail" injects nothing, and a job naming an engine would ride the
// daemon's engine without a word. A job of no hosts is a bad request
// too (a placement the fabric cannot satisfy stays a 409: TestHandlerJobs).
// None of them reaches the event loop.
func TestHandlerStrictBodies(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	for _, tc := range []struct {
		path, body string
		code       int
		says       string
	}{
		{"/v1/faults", `{"fial":[3]}`, http.StatusBadRequest, `"fial"`},
		{"/v1/jobs", `{"sise":8}`, http.StatusBadRequest, `"sise"`},
		{"/v1/jobs", `{"size":8,"engine":"minhop-random"}`, http.StatusBadRequest, `"engine"`},
		{"/v1/jobs", `{"size":0}`, http.StatusBadRequest, `"size" 0`},
		{"/v1/jobs", `{"size":-3,"aligned":true}`, http.StatusBadRequest, `"size" -3`},
		{"/v1/jobs", `{"size":8}{"size":9}`, http.StatusBadRequest, "after the request object"},
		{"/v1/faults", `{"fail":[3]} x`, http.StatusBadRequest, "after the request object"},
	} {
		rec, body := do(t, h, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if msg, _ := body["error"].(string); rec.Code != tc.code || !strings.Contains(msg, tc.says) {
			t.Errorf("POST %s %s: %d %q, want %d naming %s", tc.path, tc.body, rec.Code, msg, tc.code, tc.says)
		}
	}
	if recs, _ := m.Events(0); len(recs) != 0 || m.Current().Epoch != 1 {
		t.Fatalf("refused bodies reached the event loop: epoch %d, journal %+v", m.Current().Epoch, recs)
	}
}

package obs

import (
	"testing"
	"time"
)

func TestREDObserve(t *testing.T) {
	r := NewRegistry()
	red := NewRED(r, "svc")
	ep := red.Endpoint("GET /v1/route")

	ep.Observe(200, 50*time.Microsecond)
	ep.Observe(200, 150*time.Microsecond)
	ep.Observe(404, 10*time.Microsecond)
	ep.Observe(503, 10*time.Microsecond)
	ep.Observe(0, time.Millisecond) // transport failure sentinel

	snap := r.Snapshot()
	checks := map[string]int64{
		`svc_requests_total{endpoint="GET /v1/route",code="2xx"}`:   2,
		`svc_requests_total{endpoint="GET /v1/route",code="4xx"}`:   1,
		`svc_requests_total{endpoint="GET /v1/route",code="5xx"}`:   1,
		`svc_requests_total{endpoint="GET /v1/route",code="error"}`: 1,
		`svc_errors_total{endpoint="GET /v1/route"}`:                3,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := snap.Histograms[`svc_request_duration_us{endpoint="GET /v1/route"}`]
	if h.Count != 5 {
		t.Fatalf("duration count = %d, want 5", h.Count)
	}
	if h.Sum != 50+150+10+10+1000 {
		t.Fatalf("duration sum = %v", h.Sum)
	}
}

// TestREDEndpointReuse: repeated Endpoint calls return the same handles
// and keep accumulating into the same series.
func TestREDEndpointReuse(t *testing.T) {
	r := NewRegistry()
	red := NewRED(r, "svc")
	a := red.Endpoint("x")
	b := red.Endpoint("x")
	if a != b {
		t.Fatal("Endpoint not cached")
	}
	a.Observe(200, time.Microsecond)
	b.Observe(200, time.Microsecond)
	if got := r.Snapshot().Counters[`svc_requests_total{endpoint="x",code="2xx"}`]; got != 2 {
		t.Fatalf("accumulated = %d, want 2", got)
	}
}

// TestREDNil: the whole chain is a no-op when the registry is nil.
func TestREDNil(t *testing.T) {
	red := NewRED(nil, "svc")
	if red != nil {
		t.Fatal("NewRED(nil) should be nil")
	}
	ep := red.Endpoint("x") // nil receiver
	ep.Observe(200, time.Second)
	ep.Observe(500, time.Second)
}

package obs

import (
	"strconv"
	"sync"
	"time"
)

// RED is per-endpoint request instrumentation following the RED method:
// Rate (requests), Errors and Duration. One RED owns a family of
// labeled series in a registry —
//
//	<prefix>_requests_total{endpoint="...",code="2xx"}   counter
//	<prefix>_errors_total{endpoint="..."}                counter
//	<prefix>_request_duration_us{endpoint="..."}         histogram
//
// — with one Endpoint handle per served route. Handles are created once
// (typically at mux construction) and observed per request with two
// atomic adds plus one histogram observation, so the serving hot path
// pays no lock and no allocation. A nil *RED hands out nil endpoint
// handles, making disabled instrumentation free, matching the rest of
// this package.
type RED struct {
	reg    *Registry
	prefix string

	mu  sync.Mutex
	eps map[string]*REDEndpoint
}

// DefaultREDBucketsUS is the request-duration bucket ladder in
// microseconds: fine enough near the bottom that a loopback route
// lookup (single-digit µs) lands in a narrow bucket, so interpolated
// tail quantiles stay comparable with exact client-side measurements.
var DefaultREDBucketsUS = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1e6,
}

// NewRED builds a RED family with the given metric prefix (e.g.
// "fmgr_http"), its durations bucketed by DefaultREDBucketsUS. A nil
// registry yields a nil RED.
func NewRED(reg *Registry, prefix string) *RED {
	if reg == nil {
		return nil
	}
	return &RED{reg: reg, prefix: prefix, eps: map[string]*REDEndpoint{}}
}

// REDEndpoint is the per-endpoint handle triplet. All methods are
// nil-safe no-ops.
type REDEndpoint struct {
	codes    [6]*Counter // index status/100, clamped; [0] catches transport-level failures
	errors   *Counter
	duration *Histogram
}

// Endpoint returns (creating on first use) the handles for one endpoint
// label, e.g. "GET /v1/route". Nil RED returns nil.
func (r *RED) Endpoint(name string) *REDEndpoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.eps[name]; ok {
		return e
	}
	e := &REDEndpoint{
		errors:   r.reg.Counter(Labeled(r.prefix+"_errors_total", "endpoint", name)),
		duration: r.reg.MustHistogram(Labeled(r.prefix+"_request_duration_us", "endpoint", name), DefaultREDBucketsUS),
	}
	for class := range e.codes {
		code := strconv.Itoa(class) + "xx"
		if class == 0 {
			code = "error"
		}
		e.codes[class] = r.reg.Counter(Labeled(r.prefix+"_requests_total", "endpoint", name, "code", code))
	}
	r.eps[name] = e
	return e
}

// Observe records one finished request: its status class counter, the
// error counter when status >= 400 (or status <= 0, the transport-error
// sentinel), and the duration histogram.
func (e *REDEndpoint) Observe(status int, d time.Duration) {
	if e == nil {
		return
	}
	class := status / 100
	if class < 0 || status <= 0 || class >= len(e.codes) {
		class = 0
	}
	e.codes[class].Inc()
	if status >= 400 || status <= 0 {
		e.errors.Inc()
	}
	e.duration.Observe(float64(d.Microseconds()))
}

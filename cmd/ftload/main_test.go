package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"fattree/internal/bakeoff"
	"fattree/internal/cli/clitest"
	"fattree/internal/des"
	"fattree/internal/fmgr"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := topo.ParseSpec("rlft2:4,8")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fmgr.New(fmgr.Config{
		Topo:    tp,
		Metrics: obs.NewRegistry(),
		Rand:    rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(m.Close)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestSweepClosed(t *testing.T) {
	srv := startDaemon(t)
	doc, err := sweep(config{
		Addr:     srv.URL,
		Mode:     "closed",
		Levels:   "2,1", // deliberately unsorted
		Duration: 150 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Seed:     1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "fattree-load/v1" || doc.Endpoint != "GET /v1/route" {
		t.Fatalf("doc header: %+v", doc)
	}
	if doc.Hosts != 32 {
		t.Fatalf("hosts = %d, want 32", doc.Hosts)
	}
	if len(doc.Levels) != 2 {
		t.Fatalf("%d levels, want 2", len(doc.Levels))
	}
	// Ladder must be emitted monotone even when given unsorted.
	if doc.Levels[0].Concurrency != 1 || doc.Levels[1].Concurrency != 2 {
		t.Fatalf("levels not sorted: %+v", doc.Levels)
	}
	for i, lvl := range doc.Levels {
		if lvl.Mode != "closed" || lvl.Sent == 0 || lvl.Errors != 0 {
			t.Fatalf("level %d: %+v", i, lvl)
		}
		if lvl.P50US <= 0 || lvl.P99US < lvl.P50US || lvl.MaxUS < lvl.P99US {
			t.Fatalf("level %d quantiles disordered: %+v", i, lvl)
		}
		if lvl.ServerP99US <= 0 {
			t.Fatalf("level %d: server histogram recorded nothing: %+v", i, lvl)
		}
		if lvl.BucketP99US <= 0 {
			t.Fatalf("level %d: no bucketized client p99: %+v", i, lvl)
		}
	}
}

// TestCheckAgreement pins the client/server p99 agreement rule on
// synthetic documents, so no wall-clock sweep decides the verdict:
// differences up to 250µs always pass, beyond that the relative gap to
// the server p99 must not exceed the tolerance, and the client p99 is
// judged net of the RTT floor.
func TestCheckAgreement(t *testing.T) {
	doc := func(bucket, server, floor float64) *schema.LoadDoc {
		return &schema.LoadDoc{
			RTTFloorP99US: floor,
			Levels:        []schema.LoadLevel{{BucketP99US: bucket, ServerP99US: server}},
		}
	}
	for _, tc := range []struct {
		name string
		doc  *schema.LoadDoc
		frac float64
		ok   bool
	}{
		{"agreeing", doc(1000, 1000, 0), 0.5, true},
		{"inside the absolute slack", doc(340, 90, 0), 0.5, true},
		{"just inside the tolerance", doc(1500, 1000, 0), 0.5, true},
		{"just outside the tolerance", doc(1501, 1000, 0), 0.5, false},
		{"RTT floor subtracted", doc(1900, 1000, 400), 0.5, true},
		{"same gap without the floor", doc(1900, 1000, 0), 0.5, false},
		{"floor above the client p99 clamps to zero", doc(100, 200, 400), 0.5, true},
		{"server recorded nothing", doc(1000, 0, 0), 0.5, false},
		{"no levels", &schema.LoadDoc{}, 0.5, false},
	} {
		err := checkAgreement(tc.doc, tc.frac)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkAgreement = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSweepOpen(t *testing.T) {
	srv := startDaemon(t)
	doc, err := sweep(config{
		Addr:        srv.URL,
		Mode:        "open",
		Levels:      "200",
		Duration:    200 * time.Millisecond,
		Warmup:      20 * time.Millisecond,
		Outstanding: 64,
		Seed:        1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lvl := doc.Levels[0]
	if lvl.Mode != "open" || lvl.OfferedRPS != 200 {
		t.Fatalf("level: %+v", lvl)
	}
	if lvl.Sent == 0 || lvl.Errors != 0 {
		t.Fatalf("open level served nothing cleanly: %+v", lvl)
	}
	// At 200/s a loopback route lookup never saturates 64 outstanding.
	if lvl.Shed != 0 {
		t.Fatalf("shed %d ticks at trivial load", lvl.Shed)
	}
}

// startDualDaemon serves HTTP and the binary protocol on one sniffed
// listener — the shape ftfabricd deploys — and returns its base URL.
func startDualDaemon(t *testing.T) string {
	t.Helper()
	g, err := topo.ParseSpec("rlft2:4,8")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fmgr.New(fmgr.Config{Topo: tp, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(m.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(wire.Split(ln, m.ServeWire))
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func TestSweepBinaryClosed(t *testing.T) {
	url := startDualDaemon(t)
	doc, err := sweep(config{
		Addr:     url,
		Proto:    "binary",
		Batch:    8,
		Mode:     "closed",
		Levels:   "2",
		Duration: 150 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Seed:     1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Protocol != "binary" || doc.Batch != 8 || doc.Endpoint != "route_set" {
		t.Fatalf("doc header: %+v", doc)
	}
	lvl := doc.Levels[0]
	if lvl.Sent == 0 || lvl.Errors != 0 || lvl.EpochRegressions != 0 {
		t.Fatalf("level: %+v", lvl)
	}
	if lvl.RoutesRPS < lvl.AchievedRPS*7.9 {
		t.Fatalf("routes/s %.0f not ~8x req/s %.0f", lvl.RoutesRPS, lvl.AchievedRPS)
	}
	if lvl.ServerP99US <= 0 {
		t.Fatalf("wire histogram recorded nothing: %+v", lvl)
	}
}

func TestSweepBinaryOpen(t *testing.T) {
	url := startDualDaemon(t)
	doc, err := sweep(config{
		Addr:        url,
		Proto:       "binary",
		Batch:       4,
		Mode:        "open",
		Levels:      "200",
		Duration:    200 * time.Millisecond,
		Warmup:      20 * time.Millisecond,
		Outstanding: 64,
		Seed:        1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lvl := doc.Levels[0]
	if lvl.Mode != "open" || lvl.Sent == 0 || lvl.Errors != 0 || lvl.Shed != 0 {
		t.Fatalf("level: %+v", lvl)
	}
}

func TestParseAddrs(t *testing.T) {
	base, bin, err := parseAddrs("http://a:1, http://b:2/")
	if err != nil || base != "http://a:1" || len(bin) != 2 || bin[0] != "a:1" || bin[1] != "b:2" {
		t.Fatalf("base=%q bin=%v err=%v", base, bin, err)
	}
	if _, _, err := parseAddrs("https://a:1"); err == nil {
		t.Fatal("https accepted for binary dialing")
	}
	if _, _, err := parseAddrs(" ,"); err == nil {
		t.Fatal("empty list accepted")
	}
}

func TestSweepBadInputs(t *testing.T) {
	if _, err := sweep(config{Mode: "sideways"}, io.Discard); err == nil {
		t.Fatal("bad mode accepted")
	}
	// Each refused before any request: the address is never dialed.
	ok := config{Addr: "http://127.0.0.1:1", Mode: "open", Levels: "100", Duration: time.Second, Outstanding: 1}
	for _, tc := range []struct {
		name string
		edit func(*config)
		want string
	}{
		{"negative in-flight cap", func(c *config) { c.Outstanding = -1 }, "max-outstanding -1"},
		{"zero in-flight cap", func(c *config) { c.Outstanding = 0 }, "max-outstanding 0"},
		{"fractional workers", func(c *config) { c.Mode, c.Levels = "closed", "0.5" }, "bad level 0.5"},
		{"empty window", func(c *config) { c.Duration = 0 }, "duration 0s"},
	} {
		cfg := ok
		tc.edit(&cfg)
		if _, err := sweep(cfg, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := parseLevels(""); err == nil {
		t.Fatal("empty ladder accepted")
	}
	if _, err := parseLevels("4,-1"); err == nil {
		t.Fatal("negative level accepted")
	}
}

// TestGolden covers the paths that end before a sweep measures
// anything; sweeps themselves are wall-clock and tested above.
func TestGolden(t *testing.T) {
	clitest.Run(t, "ftload", setup, []clitest.Case{
		{Name: "bad-flag", Args: []string{"-nope"}, Exit: 2, Stderr: "flag provided but not defined: -nope"},
		{Name: "bad-mode", Args: []string{"-mode", "sideways"}, Exit: 1, Stderr: `ftload: unknown mode "sideways" (want closed or open)`},
		{Name: "bad-proto", Args: []string{"-proto", "carrier-pigeon"}, Exit: 1, Stderr: `ftload: unknown protocol "carrier-pigeon" (want json or binary)`},
		{Name: "bad-levels", Args: []string{"-levels", "4,x"}, Exit: 1, Stderr: `ftload: bad level "x" (want a positive number)`},
		{Name: "unreachable", Args: []string{"-addr", "http://127.0.0.1:1"}, Exit: 1, Stderr: `ftload: Get "http://127.0.0.1:1/v1/order"`},
	})
}

func TestHistDelta(t *testing.T) {
	bounds := []float64{10, 100}
	before := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 2, 0}, Count: 7, Sum: 100}
	after := obs.HistogramSnapshot{Bounds: bounds, Counts: []uint64{5, 6, 1}, Count: 12, Sum: 400}
	d := histDelta(before, after)
	if d.Count != 5 || d.Sum != 300 {
		t.Fatalf("delta count/sum: %+v", d)
	}
	if d.Counts[0] != 0 || d.Counts[1] != 4 || d.Counts[2] != 1 {
		t.Fatalf("delta counts: %v", d.Counts)
	}
	if q := d.Quantile(0.5); q <= 10 || q > 100 {
		t.Fatalf("delta p50 %v outside (10,100]", q)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := exactQuantile(s, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := exactQuantile(s, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := exactQuantile(s, 0.5); got != 2.5 {
		t.Fatalf("q0.5 = %v", got)
	}
	if got := exactQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

// TestDocumentsRoundTrip takes each shared document format from its
// real producer and decodes it into the internal/schema type that
// internal/report renders: every field must be known
// (DisallowUnknownFields) and re-encoding must give the producer's
// bytes back, so neither side can add or rename a field alone. It
// lives here because ftload's sweep is the one producer in a main
// package.
func TestDocumentsRoundTrip(t *testing.T) {
	srv := startDaemon(t)
	tp := topo.MustBuild(topo.Cluster128)
	enc := func(v interface{}, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// One simulation with the probe sampler on: the -metrics stream
	// closes the run with the rollup.
	var probes bytes.Buffer
	cfg := netsim.DefaultConfig()
	cfg.Probes = obs.NewSampler(&probes, 5*des.Microsecond)
	nw, err := netsim.New(route.DModK(tp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]netsim.Message, tp.NumHosts())
	for i := range msgs {
		msgs[i] = netsim.Message{Src: i, Dst: (i + 1) % len(msgs), Bytes: 8 << 10}
	}
	if _, err := nw.Run(msgs); err != nil {
		t.Fatal(err)
	}
	cfg.Probes.Flush() // into a bytes.Buffer: cannot fail

	for _, tc := range []struct {
		name string
		raw  []byte
		into interface{}
	}{
		{"bakeoff", enc(bakeoff.Run(bakeoff.Config{Topo: tp, Engines: []string{"dmodk", "smodk"}, Seed: 1})), new(schema.BakeoffDoc)},
		{"events", journalAfterFault(t, tp), new(schema.EventsDoc)},
		{"link-rollup", regexp.MustCompile(`(?m)^\{"rollup":.*$`).Find(probes.Bytes()), new(schema.LinkRollup)},
		{"load", enc(sweep(config{Addr: srv.URL, Mode: "closed", Levels: "1",
			Duration: 50 * time.Millisecond, Warmup: 10 * time.Millisecond, Seed: 1}, io.Discard)), new(schema.LoadDoc)},
	} {
		raw := bytes.TrimSpace(tc.raw)
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.into); err != nil {
			t.Errorf("%s: %v in %q", tc.name, err, raw)
		} else if back := enc(tc.into, nil); !bytes.Equal(back, raw) {
			t.Errorf("%s: re-encoded document differs\n got %s\nwant %s", tc.name, back, raw)
		}
	}
}

// journalAfterFault returns a daemon's GET /v1/events body after one
// link failure has been rerouted and validated.
func journalAfterFault(t *testing.T, tp *topo.Topology) []byte {
	t.Helper()
	m, err := fmgr.New(fmgr.Config{Topo: tp, Metrics: obs.NewRegistry(), Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	swapped := make(chan uint64, 2) // the initial snapshot and the rebuilt one
	m.OnSwap = func(st *fmgr.FabricState) { swapped <- st.Epoch }
	m.Start()
	defer m.Close()
	if _, err := m.InjectFaults(nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	for <-swapped < 2 {
	}
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/events", nil))
	return rec.Body.Bytes()
}

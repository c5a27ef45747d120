package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fattree/internal/obs"
	"fattree/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureProbes builds a small deterministic probe stream: utilization
// ramping on four channels, a draining event queue, and a closing
// snapshot with one histogram.
func fixtureProbes(t *testing.T) *ProbeData {
	t.Helper()
	r := obs.NewRegistry()
	r.Counter("pkts_sent").Add(1234)
	r.Gauge("hosts").Set(4)
	h, err := r.Histogram("msg_latency_ns", []float64{100, 1000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	h.Observe(5000)
	snap := r.Snapshot()
	d := &ProbeData{
		Schema: schema.Probes,
		Series: map[string]*Series{},
		Order:  []string{"link_util", "event_queue", "credit_stalls"},
	}
	for _, n := range d.Order {
		d.Series[n] = &Series{}
	}
	for tick := int64(0); tick < 6; tick++ {
		u := float64(tick) / 5
		d.Series["link_util"].Samples = append(d.Series["link_util"].Samples,
			Sample{T: tick * 1_000_000, Values: []float64{u, 1 - u, 0.5, 1.2 * u}})
		d.Series["event_queue"].Samples = append(d.Series["event_queue"].Samples,
			Sample{T: tick * 1_000_000, Values: []float64{float64(12 - 2*tick)}})
		d.Series["credit_stalls"].Samples = append(d.Series["credit_stalls"].Samples,
			Sample{T: tick * 1_000_000, Values: []float64{float64(tick * 3), float64(tick)}})
	}
	d.Snapshot = &snap
	return d
}

// fixtureTrace builds a trace with three stage spans and a process
// label.
func fixtureTrace() *TraceData {
	return &TraceData{
		Schema: schema.Trace,
		Events: []TraceEvent{
			{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]interface{}{"name": "collective"}},
			{Name: "stage 0", Ph: "X", Pid: 1, Ts: 0, Dur: 2.5, Args: map[string]interface{}{"messages": 4.0}},
			{Name: "stage 1", Ph: "X", Pid: 1, Ts: 2.5, Dur: 1.5, Args: map[string]interface{}{"messages": 4.0}},
			{Name: "stage 2", Ph: "X", Pid: 1, Ts: 4.0, Dur: 3.0, Args: map[string]interface{}{"messages": 4.0}},
			{Name: "send", Ph: "X", Pid: 2, Ts: 0, Dur: 1},
		},
	}
}

// TestRenderHTMLGolden pins the full report byte-for-byte. Regenerate
// with `go test ./internal/report -run Golden -update` after deliberate
// renderer changes.
func TestRenderHTMLGolden(t *testing.T) {
	var buf bytes.Buffer
	err := RenderHTML(&buf, Inputs{Probes: fixtureProbes(t), Trace: fixtureTrace()}, HTMLOptions{
		Title:       "golden fixture run",
		MetricsFile: "probes.jsonl",
		TraceFile:   "trace.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.html")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered HTML differs from %s (run with -update after deliberate changes)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestRenderHTMLContent sanity-checks the report's substance beyond the
// golden bytes: self-contained, non-empty heatmap and timeline,
// quantile table present.
func TestRenderHTMLContent(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, Inputs{Probes: fixtureProbes(t), Trace: fixtureTrace()}, HTMLOptions{Generated: "test"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"<script", "http://", "https://", "<link", "<img"} {
		if strings.Contains(out, banned) {
			t.Errorf("report is not self-contained: found %q", banned)
		}
	}
	for _, want := range []string{
		"Link utilization", "<svg", "ch0", // heatmap with channel rows
		"Stage timeline", "stage 0",
		"msg_latency_ns", "p95", // quantile table
		"pkts_sent", "1234",
		schema.Probes, schema.Trace,
		"generated test",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The overloaded channel (1.2 peak) must show the clamp color.
	if !strings.Contains(out, "#b91c1c") {
		t.Error("utilization above 1 not rendered in the warning color")
	}
}

// TestRenderHTMLPartialInputs checks graceful degradation: each input
// may be missing, and the report says so instead of failing.
func TestRenderHTMLPartialInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, Inputs{Probes: fixtureProbes(t)}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no trace file") {
		t.Error("missing-trace note absent")
	}
	buf.Reset()
	if err := RenderHTML(&buf, Inputs{Trace: fixtureTrace()}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no probe stream") {
		t.Error("missing-probes note absent")
	}
	buf.Reset()
	if err := RenderHTML(&buf, Inputs{}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<html") {
		t.Error("empty-input report is not HTML")
	}
}

// TestHeatmapTruncation pins the row cap: more channels than
// MaxHeatmapRows keeps the busiest and announces the cut.
func TestHeatmapTruncation(t *testing.T) {
	d := &ProbeData{Series: map[string]*Series{}, Order: []string{"link_util"}}
	s := &Series{}
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64(i) / 8 // channel 7 is the busiest
	}
	s.Samples = append(s.Samples, Sample{T: 0, Values: vals}, Sample{T: 1000, Values: vals})
	d.Series["link_util"] = s
	var buf bytes.Buffer
	if err := RenderHTML(&buf, Inputs{Probes: d}, HTMLOptions{MaxHeatmapRows: 3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 busiest of 8") {
		t.Errorf("truncation note absent:\n%s", out)
	}
	if !strings.Contains(out, ">ch7</text>") || strings.Contains(out, ">ch0</text>") {
		t.Error("row cap did not keep the busiest channels")
	}
}

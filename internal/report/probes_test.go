package report

import (
	"bytes"
	"strings"
	"testing"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/schema"
)

// TestParseProbesRoundTrip feeds the parser a stream produced by the
// real obs.Sampler — header record, two probe series over three ticks,
// closing registry snapshot — and checks everything lands where it
// should.
func TestParseProbesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewSampler(&buf, des.Microsecond)
	s.Record(obs.StreamHeader{Schema: schema.Probes})
	util := []float64{0, 0, 0}
	s.Series("link_util", func(now des.Time, b []float64) []float64 {
		return append(b, util...)
	})
	queue := 0.0
	s.Series("event_queue", func(now des.Time, b []float64) []float64 {
		return append(b, queue)
	})
	for tick := 0; tick < 3; tick++ {
		util[0] = float64(tick) * 0.25
		util[2] = 1 - float64(tick)*0.25
		queue = float64(10 - tick)
		s.Sample(des.Time(tick) * des.Microsecond)
	}
	r := obs.NewRegistry()
	r.Counter("pkts_sent").Add(42)
	h, err := r.Histogram("msg_latency_ns", []float64{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(50)
	h.Observe(50)
	s.Record(struct {
		Snapshot obs.Snapshot `json:"snapshot"`
	}{r.Snapshot()})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	d, err := ParseProbes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != schema.Probes {
		t.Errorf("schema = %q, want %q", d.Schema, schema.Probes)
	}
	if d.Malformed != 0 || d.Extra != 0 {
		t.Errorf("clean stream counted malformed=%d extra=%d", d.Malformed, d.Extra)
	}
	if got := d.Order; len(got) != 2 || got[0] != "link_util" || got[1] != "event_queue" {
		t.Errorf("series order = %v", got)
	}
	lu := d.Get("link_util")
	if lu == nil || len(lu.Samples) != 3 || lu.Width() != 3 {
		t.Fatalf("link_util parsed wrong: %+v", lu)
	}
	if lu.Samples[2].T != int64(2*des.Microsecond) {
		t.Errorf("sample time = %d ps, want %d", lu.Samples[2].T, int64(2*des.Microsecond))
	}
	if lu.Samples[2].Values[0] != 0.5 || lu.Samples[2].Values[2] != 0.5 {
		t.Errorf("sample values = %v", lu.Samples[2].Values)
	}
	eq := d.Get("event_queue")
	if eq == nil || len(eq.Samples) != 3 || eq.Samples[0].Values[0] != 10 {
		t.Fatalf("event_queue parsed wrong: %+v", eq)
	}
	if d.Snapshot == nil {
		t.Fatal("snapshot record not captured")
	}
	if d.Snapshot.Counters["pkts_sent"] != 42 {
		t.Errorf("snapshot counter = %d", d.Snapshot.Counters["pkts_sent"])
	}
	hs := d.Snapshot.Histograms["msg_latency_ns"]
	if hs.Count != 2 || hs.P50 == 0 {
		t.Errorf("snapshot histogram lost quantiles: %+v", hs)
	}
	if d.Get("nope") != nil {
		t.Error("Get on missing series not nil")
	}
}

// TestParseProbesMalformed checks that garbage lines are skipped and
// counted instead of poisoning the stream — a truncated file from a
// crashed run must still yield its valid prefix.
func TestParseProbesMalformed(t *testing.T) {
	in := strings.Join([]string{
		`{"schema":"fattree-probes/v1"}`,
		`{"t_ps":1000,"series":"event_queue","values":[5]}`,
		`not json at all`,
		`{"t_ps":2000,"series":"event_queue","values":[3]`, // truncated mid-record
		``,
		`{"note":"valid json, unknown shape"}`,
		`{"t_ps":3000,"series":"event_queue","values":[1]}`,
	}, "\n")
	d, err := ParseProbes(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Malformed != 2 {
		t.Errorf("malformed = %d, want 2", d.Malformed)
	}
	if d.Extra != 1 {
		t.Errorf("extra = %d, want 1", d.Extra)
	}
	eq := d.Get("event_queue")
	if eq == nil || len(eq.Samples) != 2 {
		t.Fatalf("valid samples lost: %+v", eq)
	}
	if eq.Samples[1].T != 3000 || eq.Samples[1].Values[0] != 1 {
		t.Errorf("last sample = %+v", eq.Samples[1])
	}
	if d.Schema != "fattree-probes/v1" {
		t.Errorf("schema = %q", d.Schema)
	}

	// Nil-safety of the accessors.
	var nilData *ProbeData
	if nilData.Get("x") != nil {
		t.Error("nil ProbeData.Get not nil")
	}
}

// TestParseProbesLinkRecords checks the per-channel record kinds of
// one probe stream: the contention rollup beside the series and ahead
// of the snapshot. A whole-record kind the parser does not know, such
// as one an older producer wrote, is counted in Extra, not rejected.
func TestParseProbesLinkRecords(t *testing.T) {
	stream := strings.Join([]string{
		`{"schema":"fattree-probes/v1"}`,
		`{"t_ps":0,"series":"buffer_pkts","values":[0,1]}`,
		`{"t_ps":1000,"series":"buffer_pkts","values":[2,1]}`,
		`{"rollup":"links","duration_ps":2000,"max_queue":[2,1],"busy_frac":[0.5,0.25]}`,
		`{"loops":[{"events":10,"max_pending":3},{"events":30,"max_pending":4}]}`,
		`{"snapshot":{"counters":{},"gauges":{"netsim_link_max_queue_depth":2},"histograms":{}}}`,
	}, "\n")
	d, err := ParseProbes(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != schema.Probes {
		t.Errorf("schema %q", d.Schema)
	}
	if d.Malformed != 0 || d.Extra != 1 {
		t.Errorf("malformed %d extra %d, want 0 1", d.Malformed, d.Extra)
	}
	if d.Rollup == nil || d.Rollup.DurationPS != 2000 {
		t.Fatalf("rollup = %+v", d.Rollup)
	}
	if len(d.Rollup.MaxQueue) != 2 || d.Rollup.MaxQueue[0] != 2 {
		t.Errorf("rollup max queue = %v", d.Rollup.MaxQueue)
	}
	if s := d.Get("buffer_pkts"); s == nil || len(s.Samples) != 2 {
		t.Errorf("buffer_pkts series = %+v", s)
	}
	if d.Snapshot == nil || d.Snapshot.Gauges["netsim_link_max_queue_depth"] != 2 {
		t.Errorf("snapshot = %+v", d.Snapshot)
	}
}

// TestRenderHTMLLinkSections drives the queue-depth heatmap and the
// hot-links table into the page, and the event loop's closing gauges
// into the Gauges table.
func TestRenderHTMLLinkSections(t *testing.T) {
	probes, err := ParseProbes(strings.NewReader(strings.Join([]string{
		`{"schema":"fattree-probes/v1"}`,
		`{"t_ps":0,"series":"buffer_pkts","values":[0,1,3]}`,
		`{"t_ps":1000,"series":"buffer_pkts","values":[1,0,2]}`,
		`{"rollup":"links","duration_ps":2000,"max_queue":[1,1,3],"busy_frac":[0.5,0.25,0.75]}`,
		`{"snapshot":{"counters":{},"gauges":{"netsim_busy_ns":1500000,"netsim_calendar_rebases":2},"histograms":{}}}`,
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = RenderHTML(&out, Inputs{Probes: probes}, HTMLOptions{MetricsFile: "m.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	html := out.String()
	for _, want := range []string{
		"Queue depth over time",
		"queue depth heatmap",
		"<td>netsim_busy_ns</td><td>1500000</td>",
		"<td>netsim_calendar_rebases</td><td>2</td>",
		"fattree-probes/v1",
		"metrics: m.jsonl",
		// Scaled to the deepest queue seen.
		"depth 0 &#8594; 3",
		// The hot-links table names only the contended channel (depth > 1).
		"<td>ch2</td><td>3</td><td>75</td>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("rendered HTML is missing %q", want)
		}
	}
	if strings.Contains(html, "<td>ch0</td>") || strings.Contains(html, "<td>ch1</td>") {
		t.Error("hot-links table lists depth <= 1 channels")
	}
}

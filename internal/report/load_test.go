package report

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"fattree/internal/schema"
)

func writeJSONDoc(w io.Writer, v interface{}) error { return json.NewEncoder(w).Encode(v) }

func fixtureLoad() *schema.LoadDoc {
	return &schema.LoadDoc{
		Schema:     schema.Load,
		Target:     "http://127.0.0.1:7474",
		Endpoint:   "GET /v1/route",
		Hosts:      324,
		RTTFloorUS: 40,
		Levels: []schema.LoadLevel{
			{Mode: "closed", Concurrency: 1, AchievedRPS: 4000, Sent: 8000,
				P50US: 90, P95US: 150, P99US: 220, MaxUS: 900, ServerP99US: 180, DurationS: 2},
			{Mode: "closed", Concurrency: 8, AchievedRPS: 21000, Sent: 42000,
				P50US: 210, P95US: 600, P99US: 1400, MaxUS: 5200, ServerP99US: 1100, DurationS: 2},
		},
	}
}

func fixtureEvents() *schema.EventsDoc {
	return &schema.EventsDoc{
		Schema: schema.Events,
		Epoch:  3,
		Events: []schema.Event{
			{Seq: 0, TimeUnixNS: 1_000_000_000, Kind: "fault", Epoch: 1, Detail: "link 17"},
			{Seq: 1, TimeUnixNS: 1_030_000_000, Kind: "reroute", Epoch: 2, Engine: "fault-resilient", DurationUS: 4200, Outcome: "ok", Detail: "failed_links=1"},
			{Seq: 2, TimeUnixNS: 1_031_000_000, Kind: "validate", Epoch: 2, DurationUS: 600, Outcome: "ok"},
			{Seq: 3, TimeUnixNS: 1_032_000_000, Kind: "swap", Epoch: 2, Outcome: "ok"},
		},
	}
}

// fixtureBinaryLoad is a batched wire-protocol sweep of the same
// daemon; rendered as its own curve section next to the JSON one.
func fixtureBinaryLoad() *schema.LoadDoc {
	return &schema.LoadDoc{
		Schema:   schema.Load,
		Target:   "http://127.0.0.1:7474",
		Endpoint: "route_set",
		Protocol: "binary",
		Batch:    32,
		Hosts:    324,
		Levels: []schema.LoadLevel{
			{Mode: "closed", Concurrency: 8, AchievedRPS: 9000, RoutesRPS: 288000, Sent: 18000,
				P50US: 300, P95US: 700, P99US: 1600, MaxUS: 4000, ServerP99US: 1300, DurationS: 2},
		},
	}
}

func TestRenderHTMLMultiLoad(t *testing.T) {
	var buf bytes.Buffer
	err := RenderHTML(&buf, Inputs{Loads: []*schema.LoadDoc{fixtureLoad(), fixtureBinaryLoad()}}, HTMLOptions{
		LoadFile: "load_json.json, load_bin.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Load curve — GET /v1/route",
		"Load curve — route_set (binary, batch 32)",
		"288000", // routes/s column for the batched sweep
		"21000",  // the JSON sweep's req/s
		"load: load_json.json, load_bin.json",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-load report missing %q", want)
		}
	}
}

func TestParseLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSONDoc(&buf, fixtureLoad()); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseLoad(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Hosts != 324 || len(doc.Levels) != 2 || doc.Levels[1].P99US != 1400 {
		t.Fatalf("round trip: %+v", doc)
	}
	if _, err := ParseLoad(strings.NewReader(`{"schema":"wrong/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ParseLoad(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestParseEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSONDoc(&buf, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 4 || doc.Events[0].Kind != "fault" {
		t.Fatalf("round trip: %+v", doc)
	}
	if _, err := ParseEvents(strings.NewReader(`{"schema":"wrong/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestRenderHTMLLoadAndEvents(t *testing.T) {
	var buf bytes.Buffer
	err := RenderHTML(&buf, Inputs{Loads: []*schema.LoadDoc{fixtureLoad()}, Events: fixtureEvents()}, HTMLOptions{
		LoadFile:   "load.json",
		EventsFile: "events.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Load curve", "closed c=8", "21000", "server p99",
		"load: load.json", "events: events.json",
		schema.Load, schema.Events,
		"Fabric events", "reroute", "failed_links=1", "+32 ms",
		"<th>engine</th>", "<td>fault-resilient</td>",
		"fault", "swap",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "<img"} {
		if strings.Contains(out, banned) {
			t.Errorf("report not self-contained: %q", banned)
		}
	}

	// Empty journal: note, no strip.
	buf.Reset()
	if err := RenderHTML(&buf, Inputs{Events: &schema.EventsDoc{Schema: schema.Events, Dropped: 7}}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "event journal is empty") || !strings.Contains(out, "dropped 7 older") {
		t.Errorf("empty-journal notes missing:\n%s", out)
	}
	if strings.Contains(out, "Fabric events") {
		t.Error("empty journal still rendered a strip")
	}
}

func TestEventTableCap(t *testing.T) {
	doc := &schema.EventsDoc{Schema: schema.Events}
	for i := 0; i < maxEventRows+10; i++ {
		doc.Events = append(doc.Events, schema.Event{
			Seq: uint64(i), TimeUnixNS: int64(i) * 1_000_000, Kind: "fault",
		})
	}
	var buf bytes.Buffer
	if err := RenderHTML(&buf, Inputs{Events: doc}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "newest 256 of 266 records") {
		t.Errorf("cap note missing:\n%s", out[:400])
	}
	if strings.Contains(out, "<td>9</td>") {
		t.Error("capped table still shows oldest rows")
	}
	if !strings.Contains(out, "<td>265</td>") {
		t.Error("capped table missing newest row")
	}
}

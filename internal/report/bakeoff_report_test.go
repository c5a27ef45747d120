package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/schema"
)

func fixtureBakeoff() *schema.BakeoffDoc {
	return &schema.BakeoffDoc{
		Schema:   schema.Bakeoff,
		Topology: "rlft2:4,8",
		Hosts:    32,
		Seed:     1,
		Engines: []schema.EngineInfo{
			{Name: "dmodk", Description: "paper's D-Mod-K", LFT: true, FaultAware: true},
			{Name: "minhop-random", Description: "random baseline", LFT: true},
		},
		Levels: []schema.BakeoffLevel{
			{Name: "healthy", Engines: []schema.BakeoffResult{
				{Engine: "dmodk", RoutabilityPct: 100, MaxHSD: 1, AvgMaxHSD: 1, ContentionFree: true, RerouteUS: 120, MaxQueueDepth: -1},
				{Engine: "minhop-random", RoutabilityPct: 100, MaxHSD: 3, AvgMaxHSD: 2.5, RerouteUS: 95, MaxQueueDepth: -1},
			}},
			{Name: "1-link", FailedLinks: []int{7}, Engines: []schema.BakeoffResult{
				{Engine: "dmodk", RoutabilityPct: 100, MaxHSD: 2, AvgMaxHSD: 1.2, RerouteUS: 300, MaxQueueDepth: -1},
				{Engine: "minhop-random", Err: "stale tables cross dead link 7"},
			}},
		},
	}
}

// TestParseBakeoff round-trips a verdict through its JSON form and
// rejects the wrong schema.
func TestParseBakeoff(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(fixtureBakeoff()); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseBakeoff(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Topology != "rlft2:4,8" || len(doc.Levels) != 2 || len(doc.Engines) != 2 {
		t.Fatalf("parsed doc: %+v", doc)
	}
	if _, err := ParseBakeoff(strings.NewReader(`{"schema":"fattree-table/v1"}`)); err == nil {
		t.Fatal("ParseBakeoff accepted a wrong schema")
	}
}

// TestRenderHTMLBakeoff pins the bake-off section: heading, schema
// stamp, per-level tables, the engine rows, the errored cell, and the
// degradation curve SVG.
func TestRenderHTMLBakeoff(t *testing.T) {
	var buf bytes.Buffer
	err := RenderHTML(&buf, Inputs{Bakeoff: fixtureBakeoff()},
		HTMLOptions{BakeoffFile: "bakeoff.json"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<h2>Engine bake-off</h2>",
		"fattree-bakeoff/v1",
		"bake-off: bakeoff.json",
		"rlft2:4,8, 32 hosts, seed 1, 2 engine(s) x 2 fault level(s)",
		"<h3>healthy (0 failed link(s))</h3>",
		"<h3>1-link (1 failed link(s))</h3>",
		"<td>dmodk</td>",
		"stale tables cross dead link 7",
		"routability degradation curves",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The errored engine has no point at the faulted rung, so only the
	// healthy rung carries a minhop marker.
	if n := strings.Count(out, "minhop-random @"); n != 1 {
		t.Errorf("minhop-random has %d curve points, want 1 (errored rung skipped)", n)
	}
}

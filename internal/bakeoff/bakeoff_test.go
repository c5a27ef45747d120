package bakeoff

import (
	"bytes"
	"encoding/json"
	"testing"

	"fattree/internal/engine"
	"fattree/internal/report"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

func buildTopo(t testing.TB, spec string) *topo.Topology {
	t.Helper()
	g, err := topo.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestRunSmall(t *testing.T) {
	tp := buildTopo(t, "rlft2:4,8")
	doc, err := Run(Config{Topo: tp, Seed: 7, Sim: true, SimStages: 2, Bytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != schema.Bakeoff {
		t.Errorf("schema = %q, want %q", doc.Schema, schema.Bakeoff)
	}
	if len(doc.Levels) < 3 {
		t.Fatalf("only %d fault levels, want >= 3", len(doc.Levels))
	}
	if len(doc.Engines) < 4 {
		t.Fatalf("only %d engines, want >= 4", len(doc.Engines))
	}
	for _, lv := range doc.Levels {
		if len(lv.Engines) != len(doc.Engines) {
			t.Fatalf("level %s has %d cells for %d engines", lv.Name, len(lv.Engines), len(doc.Engines))
		}
		for _, er := range lv.Engines {
			if er.Engine == "broken-test" {
				continue // engine_test.go registers it process-wide
			}
			if er.Err != "" {
				t.Errorf("level %s engine %s: %v", lv.Name, er.Engine, er.Err)
			}
			if lv.Name == "healthy" {
				if er.RoutabilityPct != 100 {
					t.Errorf("healthy %s routability = %v, want 100", er.Engine, er.RoutabilityPct)
				}
				if er.MaxQueueDepth < 0 {
					t.Errorf("healthy %s queue depth missing with Sim on", er.Engine)
				}
			}
			if er.RoutabilityPct < 0 || er.RoutabilityPct > 100 {
				t.Errorf("level %s engine %s routability %v out of range", lv.Name, er.Engine, er.RoutabilityPct)
			}
		}
	}
}

// TestFaultAwareBeatsOblivious pins the bake-off's reason to exist: at
// the 1-link level, every fault-aware engine must keep strictly more
// pairs routable than the fault-oblivious tables it is compared to.
func TestFaultAwareBeatsOblivious(t *testing.T) {
	tp := buildTopo(t, "rlft2:4,8")
	doc, err := Run(Config{Topo: tp, Seed: 7, Engines: []string{"dmodk", "fault-resilient", "dmodk-naive", "minhop-random"}})
	if err != nil {
		t.Fatal(err)
	}
	var level *schema.BakeoffLevel
	for i := range doc.Levels {
		if doc.Levels[i].Name == "1-link" {
			level = &doc.Levels[i]
		}
	}
	if level == nil {
		t.Fatal("no 1-link level")
	}
	cell := func(name string) schema.BakeoffResult {
		for _, er := range level.Engines {
			if er.Engine == name {
				return er
			}
		}
		t.Fatalf("no cell for %s", name)
		return schema.BakeoffResult{}
	}
	for _, aware := range []string{"dmodk", "fault-resilient"} {
		for _, oblivious := range []string{"dmodk-naive", "minhop-random"} {
			if a, o := cell(aware), cell(oblivious); a.RoutabilityPct <= o.RoutabilityPct {
				t.Errorf("%s routability %.2f%% not above %s's %.2f%%",
					aware, a.RoutabilityPct, oblivious, o.RoutabilityPct)
			}
		}
	}
	if c := cell("fault-resilient"); c.BrokenPairs != 0 {
		t.Errorf("fault-resilient left %d broken pairs on a 1-link fault", c.BrokenPairs)
	}
}

func TestStormLevelsDeterministic(t *testing.T) {
	tp := buildTopo(t, "rlft2:4,8")
	a, err := StormLevels(tp, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StormLevels(tp, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		la, lb := a[i].FS.FailedLinks(), b[i].FS.FailedLinks()
		if len(la) != len(lb) {
			t.Fatalf("level %s: %d vs %d failed links across runs", a[i].Name, len(la), len(lb))
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("level %s: fault draw not deterministic", a[i].Name)
			}
		}
	}
}

// BenchmarkEngineBakeoff324 prices a full bake-off on
// the paper cluster (all registered engines, all storm levels, analytic
// metrics only).
func BenchmarkEngineBakeoff324(b *testing.B) {
	tp := buildTopo(b, "324")
	names := []string{}
	for _, n := range engine.Names() {
		if n != "broken-test" {
			names = append(names, n)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Topo: tp, Seed: 7, Engines: names}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVerdictWireCompat pins that a real verdict, once marshalled, is
// accepted by the report package's parser with every cell intact.
func TestVerdictWireCompat(t *testing.T) {
	doc, err := Run(Config{Topo: buildTopo(t, "rlft2:4,8"), Engines: []string{"dmodk", "smodk"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := report.ParseBakeoff(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Topology != doc.Topology || len(parsed.Levels) != len(doc.Levels) || len(parsed.Engines) != 2 {
		t.Fatalf("parsed %+v from %+v", parsed, doc)
	}
	for li, l := range doc.Levels {
		for ei, e := range l.Engines {
			p := parsed.Levels[li].Engines[ei]
			if p.Engine != e.Engine || p.RoutabilityPct != e.RoutabilityPct || p.RerouteUS != e.RerouteUS {
				t.Fatalf("level %s engine %s: parsed %+v, want %+v", l.Name, e.Engine, p, e)
			}
		}
	}
}

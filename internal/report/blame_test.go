package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// TestBlameRandomOrdering pins the paper's motivating scenario on the
// 324-node cluster: random rank placement under recursive doubling
// contends, and the report names the guilty links with their full flow
// sets.
func TestBlameRandomOrdering(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	rt, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	o := order.Random(tp.NumHosts(), nil, 7)
	rep, err := BuildBlame(rt, o, cps.RecursiveDoubling(tp.NumHosts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != schema.Blame {
		t.Errorf("schema = %q, want %q", rep.Schema, schema.Blame)
	}
	if rep.ContentionFree || rep.MaxHSD <= 1 {
		t.Fatalf("random ordering reported contention-free (max HSD %d)", rep.MaxHSD)
	}
	if rep.HotLinks == 0 || rep.HotStages == 0 {
		t.Fatalf("no hot links/stages attributed: %+v", rep)
	}
	hot := 0
	for _, s := range rep.Stages {
		for i, h := range s.HotLinks {
			hot++
			if len(h.Flows) != h.Load {
				t.Errorf("stage %d link %d %s: %d flows listed, load %d",
					s.Stage, h.Link, h.Dir, len(h.Flows), h.Load)
			}
			if h.Load <= 1 {
				t.Errorf("stage %d link %d: load %d is not hot", s.Stage, h.Link, h.Load)
			}
			if i > 0 && s.HotLinks[i-1].Load < h.Load {
				t.Errorf("stage %d: hot links not sorted by load", s.Stage)
			}
			if h.From == "" || h.To == "" {
				t.Errorf("stage %d link %d: endpoints not named", s.Stage, h.Link)
			}
			for _, f := range h.Flows {
				if f.SrcRank < 0 || f.DstRank < 0 {
					t.Errorf("stage %d link %d: flow %d->%d has no ranks", s.Stage, h.Link, f.Src, f.Dst)
				}
				if o.HostOf[f.SrcRank] != f.Src || o.HostOf[f.DstRank] != f.Dst {
					t.Errorf("stage %d link %d: rank mapping inconsistent for flow %+v", s.Stage, h.Link, f)
				}
			}
		}
	}
	if hot != rep.HotLinks {
		t.Errorf("HotLinks = %d, stages carry %d", rep.HotLinks, hot)
	}

	// The report must survive a JSON round trip unchanged in substance.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back BlameReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.MaxHSD != rep.MaxHSD || back.HotLinks != rep.HotLinks || len(back.Stages) != len(rep.Stages) {
		t.Errorf("JSON round trip lost data: %+v vs %+v", back, rep)
	}

	var buf bytes.Buffer
	if err := rep.WriteBlameTable(&buf, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"max HSD", "stage ", "link ", "rank "} {
		if !strings.Contains(out, want) {
			t.Errorf("blame table missing %q:\n%s", want, out)
		}
	}
}

// TestBlameContentionFree checks the positive claim: D-Mod-K plus
// topology ordering plus the topo-aware recursive doubling yields an
// empty blame report.
func TestBlameContentionFree(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	seq, err := cps.TopoAwareRecursiveDoubling(tp.Spec.M)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildBlame(route.DModK(tp), order.Topology(tp.NumHosts(), nil), seq)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContentionFree || rep.MaxHSD > 1 || rep.HotLinks != 0 || rep.HotStages != 0 {
		t.Fatalf("expected contention-free report, got max HSD %d, %d hot links",
			rep.MaxHSD, rep.HotLinks)
	}
	for _, s := range rep.Stages {
		if len(s.HotLinks) != 0 {
			t.Errorf("stage %d carries hot links in a contention-free run", s.Stage)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteBlameTable(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nothing to blame") {
		t.Errorf("contention-free table missing the all-clear line:\n%s", buf.String())
	}
}

// TestBlameSizeMismatch checks the input validation.
func TestBlameSizeMismatch(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 1}))
	rt := route.DModK(tp)
	o := order.Topology(tp.NumHosts(), nil)
	if _, err := BuildBlame(rt, o, cps.Shift(tp.NumHosts()+1)); err == nil {
		t.Error("size mismatch not rejected")
	}
}

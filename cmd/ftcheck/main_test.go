package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/cli/clitest"
)

// checkRun drives the CLI body and returns its pass verdict plus the
// decoded JSON document.
func checkRun(t *testing.T, spec, engName, ordering string, seed int64, checks string, randN int, faults string, faultRand int, reroute bool) (bool, *document) {
	t.Helper()
	var buf bytes.Buffer
	ok, err := run(spec, engName, ordering, seed, checks, randN, faults, faultRand, reroute, true, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON verdict: %v\n%s", err, buf.String())
	}
	return ok, &doc
}

// TestAcceptanceMatrix: the full catalog passes on the paper cluster, a
// k-ary-n-tree, an XGFT and 20 seeded random RLFTs in one invocation.
func TestAcceptanceMatrix(t *testing.T) {
	randN := 20
	if testing.Short() {
		randN = 3
	}
	for _, tc := range []struct {
		name, spec string
		rand       int
	}{
		{"rlft-324", "324", randN},
		{"kary-4-3", "kary:4,3", 0},
		{"xgft", "pgft:3;2,2,2;1,2,2;1,1,1", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok, doc := checkRun(t, tc.spec, "dmodk", "topology", 1, "all", tc.rand, "", 0, false)
			if !ok || !doc.Pass {
				t.Fatalf("%s: verdict failed: %v", tc.spec, doc.FailedNames())
			}
			if doc.Schema != "fattree-check/v1" {
				t.Fatalf("schema = %q", doc.Schema)
			}
			if len(doc.Rand) != tc.rand {
				t.Fatalf("got %d rand verdicts, want %d", len(doc.Rand), tc.rand)
			}
			for _, v := range doc.Rand {
				if !v.Pass || v.Error != "" {
					t.Errorf("rand seed %d (%s): failed=%v err=%s", v.Seed, v.Spec, v.Failed, v.Error)
				}
			}
		})
	}
}

// TestBrokenRoutingFails: random up-port selection violates Theorem 2
// and contention freedom, and the verdict carries a minimal
// counterexample pair.
func TestBrokenRoutingFails(t *testing.T) {
	ok, doc := checkRun(t, "rlft2:4,8", "minhop-random", "topology", 7, "all", 0, "", 0, false)
	if ok || doc.Pass {
		t.Fatal("minhop-random passed the theorem checks")
	}
	failed := strings.Join(doc.FailedNames(), ",")
	if !strings.Contains(failed, "route.thm2-down-unique") || !strings.Contains(failed, "hsd.contention-free") {
		t.Fatalf("failed checks = %s", failed)
	}
	for _, c := range doc.Checks {
		if c.Name == "route.thm2-down-unique" {
			if c.Counterexample == nil || len(c.Counterexample.Pair) != 2 || c.Counterexample.Link == nil {
				t.Fatalf("thm2 counterexample incomplete: %+v", c.Counterexample)
			}
		}
	}
}

// TestShuffledOrderingFails: a random rank placement breaks only the
// contention-freedom invariant; the blamed link and its flows are in the
// counterexample.
func TestShuffledOrderingFails(t *testing.T) {
	ok, doc := checkRun(t, "rlft2:4,8", "dmodk", "random", 3, "all", 0, "", 0, false)
	if ok || doc.Pass {
		t.Fatal("shuffled ordering passed")
	}
	if got := doc.FailedNames(); len(got) != 1 || got[0] != "hsd.contention-free" {
		t.Fatalf("failed checks = %v, want only hsd.contention-free", got)
	}
	for _, c := range doc.Checks {
		if c.Name == "hsd.contention-free" {
			cx := c.Counterexample
			if cx == nil || cx.Link == nil || cx.Load < 2 || len(cx.Flows) < 2 {
				t.Fatalf("contention counterexample incomplete: %+v", cx)
			}
		}
	}
}

// TestFaultedLinkFails: one dead link under the healthy tables fails
// route.alive and blames exactly that link; with -reroute the verdict
// recovers to pass.
func TestFaultedLinkFails(t *testing.T) {
	ok, doc := checkRun(t, "rlft2:4,8", "dmodk", "topology", 1, "all", 0, "", 1, false)
	if ok || doc.Pass {
		t.Fatal("stale tables over a dead link passed")
	}
	if len(doc.Faults) != 1 {
		t.Fatalf("faults = %v, want one", doc.Faults)
	}
	found := false
	for _, c := range doc.Checks {
		if c.Name == "route.alive" {
			if c.Status != "fail" {
				t.Fatalf("route.alive = %s", c.Status)
			}
			cx := c.Counterexample
			if cx == nil || cx.Link == nil || *cx.Link != doc.Faults[0] {
				t.Fatalf("route.alive blames %+v, want link %d", cx, doc.Faults[0])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("route.alive missing from the verdict")
	}

	ok, doc = checkRun(t, "rlft2:4,8", "dmodk", "topology", 1, "all", 0, "", 1, true)
	if !ok || !doc.Pass {
		t.Fatalf("rerouted fault still fails: %v", doc.FailedNames())
	}
}

// TestExplicitFaultList: -fault accepts explicit link IDs.
func TestExplicitFaultList(t *testing.T) {
	ok, doc := checkRun(t, "kary:2,2", "dmodk", "topology", 1, "route.alive", 0, "4", 0, false)
	if ok {
		t.Fatalf("explicit fault passed: %+v", doc.Checks)
	}
	if len(doc.Faults) != 1 || doc.Faults[0] != 4 {
		t.Fatalf("faults = %v", doc.Faults)
	}
}

// TestCheckSelection: a kind prefix runs only that group, and unknown
// names error.
func TestCheckSelection(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run("kary:2,2", "dmodk", "topology", 1, "topo", 0, "", 0, false, true, &buf)
	if err != nil || !ok {
		t.Fatalf("topo-only run: ok=%v err=%v", ok, err)
	}
	var doc document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Checks {
		if !strings.HasPrefix(c.Name, "topo.") {
			t.Fatalf("unexpected check %s in topo-only run", c.Name)
		}
	}
	if _, err := run("kary:2,2", "dmodk", "topology", 1, "nope", 0, "", 0, false, true, &buf); err == nil {
		t.Fatal("unknown check name accepted")
	}
}

// TestTextOutput: the human format ends with the overall verdict word.
func TestTextOutput(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run("kary:2,2", "dmodk", "topology", 1, "all", 0, "", 0, false, false, &buf)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !strings.HasSuffix(strings.TrimSpace(buf.String()), "ok") {
		t.Fatalf("text output does not end with ok:\n%s", buf.String())
	}
}

// TestGolden pins whole invocations. The files were recorded from the
// binary that still had -routing and whose engines rerouted unasked:
// minhop-random-7, dmodk-naive and smodk are its `-routing X` outputs,
// and the *-reroute files its `-engine X -fault-random N` (no -reroute)
// outputs — each must match today's spelling byte for byte.
func TestGolden(t *testing.T) {
	rlft := func(extra ...string) []string { return append([]string{"-topo", "rlft2:4,8"}, extra...) }
	clitest.Run(t, "ftcheck", setup, []clitest.Case{
		{Name: "list", Args: []string{"-list"}},
		{Name: "dmodk-kary", Args: []string{"-topo", "kary:2,2"}},
		{Name: "minhop-random-7", Args: rlft("-engine", "minhop-random", "-seed", "7"), Exit: 1},
		{Name: "minhop-random-7-json", Args: rlft("-engine", "minhop-random", "-seed", "7", "-json"), Exit: 1},
		{Name: "dmodk-naive", Args: rlft("-engine", "dmodk-naive")},
		{Name: "smodk", Args: rlft("-engine", "smodk"), Exit: 1},
		{Name: "negative-rand", Args: rlft("-rand", "-1"), Exit: 1, Stderr: "ftcheck: -rand -1: want zero or more random RLFTs"},
		{Name: "negative-fault-random", Args: rlft("-fault-random", "-2"), Exit: 1, Stderr: "ftcheck: -fault-random -2: want zero or more links"},
		{Name: "fault-stale", Args: rlft("-fault-random", "1", "-seed", "1"), Exit: 1},
		// One meaning for -reroute: with or without naming the engine,
		// absent means healthy tables over dead links.
		{Name: "fault-stale-dmodk", Golden: "fault-stale", Args: rlft("-engine", "dmodk", "-fault-random", "1", "-seed", "1"), Exit: 1},
		{Name: "fault-reroute", Args: []string{"-topo", "324", "-fault-random", "2", "-reroute"}},
		{Name: "fault-reroute-dmodk", Golden: "fault-reroute", Args: []string{"-topo", "324", "-engine", "dmodk", "-fault-random", "2", "-reroute"}},
		{Name: "fault-reroute-json", Args: []string{"-topo", "324", "-fault-random", "2", "-reroute", "-json"}},
		{Name: "fault-resilient-reroute-json", Args: rlft("-engine", "fault-resilient", "-fault-random", "1", "-reroute", "-json")},
		{Name: "order-random-3", Args: rlft("-order", "random", "-seed", "3"), Exit: 1},
		{Name: "order-cyclic", Args: rlft("-order", "cyclic")},
		{Name: "rand-2", Args: []string{"-topo", "kary:2,2", "-rand", "2", "-seed", "1"}},
		{Name: "bad-spec", Args: []string{"-topo", "nope"}, Exit: 1, Stderr: `ftcheck: topo: unrecognized spec "nope"`},
		{Name: "bad-fault", Args: []string{"-topo", "kary:2,2", "-fault", "9999"}, Exit: 1, Stderr: "ftcheck: -fault link 9999 out of range [0,8)"},
		{Name: "bad-order", Args: rlft("-order", "nope"), Exit: 1, Stderr: `ftcheck: unknown ordering "nope"`},
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fattree/internal/topo"
)

// testSizes is the reduced shape the smoke test runs: the same code
// paths on a 128-host tree, a handful of operations each.
func testSizes() sizes {
	return sizes{
		fig2Cluster:     topo.Cluster128,
		fig2Bytes:       []int64{8 << 10},
		fig2ShiftStages: 2,
		sweepCluster:    topo.Cluster128,
		sweepOrders:     3,
		sweepStride:     16,
		daemonCluster:   topo.Cluster128,
		pollEvery:       time.Millisecond,
		setups:          1,
		warmReqs:        2,
		probeReps:       1,
		desEvents:       1 << 12,
	}
}

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json to the metric
// tables: regenerate it with `go run ./bench -manifest > BENCHMARK.json`.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`:\n%s", want)
	}
}

// TestEveryDeclaredMetricIsEmitted runs each workload untraced and
// traced at the reduced size: the run must be correct, emit exactly the
// declared metrics with the declared units, report 0 for the layers the
// workload gives no work, and leave a Chrome trace behind.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	traceDir := t.TempDir()
	for _, wl := range allWorkloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{workload: wl, seed: 7, seconds: 0.05, sz: testSizes()}
			var log bytes.Buffer
			res, err := runWorkload(o, traced, traceDir, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					wl, traced, res.Correct, res.Attempted, res.Failed, res.Reasons)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mt, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", wl, traced, d.Name)
				case mt.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", wl, d.Name, mt.Unit, d.Unit)
				case !traced && mt.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, must never be 0", wl, d.Name, mt.Value)
				case traced && !d.measuredOn(wl) && mt.Value != 0:
					t.Errorf("%s: %s = %g on a workload that does not measure it", wl, d.Name, mt.Value)
				}
			}
			line, err := lastLine([]*result{res})
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("last line has keys %v, want exactly correct/attempted/failed/metrics", obj)
			}
			if traced {
				tr, err := os.ReadFile(filepath.Join(traceDir, wl+".seed7.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(tr, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace is not Chrome trace JSON with events: %v", wl, err)
				}
				if !strings.Contains(log.String(), "self time") {
					t.Errorf("%s: traced run printed no per-layer self times", wl)
				}
			}
		}
	}
}

// TestAgree feeds -agree two result sets: identical ones agree, a set
// that is slower beyond the bound or whose exact count moved does not.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS, events float64) string {
		path := filepath.Join(dir, name)
		e2e := &result{Workload: wlFig2, Seed: 1, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			e2e.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
		}
		e2e.Metrics["op_ms"] = metric{Value: opMS, Unit: "ms"}
		layer := &result{Workload: wlFig2, Seed: 1, Trace: true, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, d := range perLayer {
			layer.Metrics[d.Name] = metric{Value: 3, Unit: d.Unit}
		}
		layer.Metrics["netsim.events"] = metric{Value: events, Unit: "count"}
		if err := appendResults(path, []*result{e2e, layer}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 5000)
	var out bytes.Buffer
	if err := agreeFiles(&out, a, write("same.json", 104, 5000)); err != nil {
		t.Errorf("4%% apart under a 10%% bound should agree: %v\n%s", err, out.String())
	}
	if err := agreeFiles(&out, a, write("fast.json", 50, 5000)); err != nil {
		t.Errorf("a faster B must not fail: %v", err)
	}
	if err := agreeFiles(&out, a, write("slow.json", 130, 5000)); err == nil {
		t.Error("30% slower under a 25% bound agreed")
	}
	if err := agreeFiles(&out, a, write("moved.json", 100, 5001)); err == nil {
		t.Error("a changed exact count agreed")
	}
}

// TestSpanSelfTime checks the recorder's accounting: self time is a
// span's duration minus what its direct children cover.
func TestSpanSelfTime(t *testing.T) {
	rec := newRecorder()
	ln := rec.lane("t")
	t0 := rec.t0
	root := ln.add(layerBench, "op", 0, -1, t0, t0.Add(100*time.Millisecond))
	ln.add("route", "compile", 0, root, t0, t0.Add(30*time.Millisecond))
	hsd := ln.add("hsd", "replay", 0, root, t0.Add(30*time.Millisecond), t0.Add(95*time.Millisecond))
	ln.add("route", "lookup", 0, hsd, t0.Add(40*time.Millisecond), t0.Add(50*time.Millisecond))
	self := rec.selfTimes()
	for layer, want := range map[string]time.Duration{
		layerBench: 5 * time.Millisecond, "route": 40 * time.Millisecond, "hsd": 55 * time.Millisecond,
	} {
		if self[layer] != want {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], want)
		}
	}
	if got := rec.layerCover(); got != 95 {
		t.Errorf("layer cover = %g%%, want 95%%", got)
	}
	var nilLane *lane // tracing off
	nilLane.end(nilLane.begin("x", "y", 0))
}

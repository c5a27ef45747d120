package netsim

// Tests for the ISSUE-8 telemetry surface: link-level contention
// probes, per-shard DES telemetry and the progress sink. The
// contention tests pin the paper's headline property end to end: a
// contention-free Shift on the 324-node cluster never queues more
// than one packet per channel, while a mis-ordered run does.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// parseRollup scans a link-probe JSONL stream for its closing rollup
// record.
func parseRollup(t *testing.T, stream []byte) schema.LinkRollup {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var roll schema.LinkRollup
	found := false
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"rollup"`)) {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &roll); err != nil {
			t.Fatalf("bad rollup line: %v", err)
		}
		found = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("link probe stream has no rollup record")
	}
	return roll
}

// runWithLinkProbes executes msgs on cluster324 with a link sampler
// attached and returns the closing rollup.
func runWithLinkProbes(t *testing.T, msgs []Message) schema.LinkRollup {
	t.Helper()
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.LinkProbes = obs.NewSampler(&buf, 5*des.Microsecond)
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.LinkProbes.Flush(); err != nil {
		t.Fatal(err)
	}
	// The schema header line is FileSinks' job; the raw sampler carries
	// the series and the rollup.
	if !strings.Contains(buf.String(), `"queue_depth"`) || !strings.Contains(buf.String(), `"link_util"`) {
		t.Fatal("link probe stream is missing the queue_depth/link_util series")
	}
	return parseRollup(t, buf.Bytes())
}

// TestLinkRollupContentionFree pins the ISSUE-8 acceptance criterion's
// positive half: the paper's recommended configuration (D-Mod-K +
// identity shift stage) keeps every channel queue at depth <= 1 — a
// packet transmitting with nothing blocked behind it.
func TestLinkRollupContentionFree(t *testing.T) {
	n := topo.MustBuild(topo.Cluster324).NumHosts()
	for _, s := range []int{1, 5, n / 2} {
		roll := runWithLinkProbes(t, shiftMsgs(n, s, 64<<10))
		for ch, d := range roll.MaxQueue {
			if d > 1 {
				t.Fatalf("shift %d: channel %d reached queue depth %d on a contention-free run", s, ch, d)
			}
		}
		if roll.DurationPS <= 0 {
			t.Errorf("shift %d: rollup carries no duration", s)
		}
	}
}

// TestLinkRollupMisordered pins the negative half: permuting the
// rank-to-host mapping breaks the D-Mod-K alignment, and the link
// probes name at least one channel queuing more than one packet.
func TestLinkRollupMisordered(t *testing.T) {
	n := topo.MustBuild(topo.Cluster324).NumHosts()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	const s = 5
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		msgs = append(msgs, Message{Src: perm[i], Dst: perm[(i+s)%n], Bytes: 64 << 10})
	}
	roll := runWithLinkProbes(t, msgs)
	maxQ := 0
	for _, d := range roll.MaxQueue {
		if int(d) > maxQ {
			maxQ = int(d)
		}
	}
	if maxQ <= 1 {
		t.Fatalf("mis-ordered shift shows max queue depth %d, expected contention (> 1)", maxQ)
	}
}

// TestFlowLogIdenticalWithTelemetry is the seeded equivalence matrix
// of ISSUE 8: across shards={1,2,4}, attaching link probes and a
// progress sink must leave the flow log byte-identical to the bare
// run. Runs under -race in CI.
func TestFlowLogIdenticalWithTelemetry(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	stages := [][]Message{
		shiftMsgs(n, 1, 2*2048),
		shiftMsgs(n, n/2, 3*2048),
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := func(telemetry bool) string {
				var flow bytes.Buffer
				cfg := DefaultConfig()
				cfg.Shards = shards
				cfg.FlowLog = &flow
				if telemetry {
					cfg.LinkProbes = obs.NewSampler(&bytes.Buffer{}, 5*des.Microsecond)
					cfg.Progress = &Progress{}
				}
				nw, err := New(lft, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := nw.RunStages(stages); err != nil {
					t.Fatal(err)
				}
				return flow.String()
			}
			bare, probed := run(false), run(true)
			if bare != probed {
				t.Errorf("flow log changed when telemetry attached (%d vs %d bytes)", len(bare), len(probed))
			}
		})
	}
}

// TestShardTelemetry checks the per-shard stats surface: one entry per
// shard, plausible counters, and the imbalance summary.
func TestShardTelemetry(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	msgs := shiftMsgs(n, 5, 64<<10)

	cfg := DefaultConfig()
	cfg.Shards = 4
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(st.Shards))
	}
	var sumEv uint64
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Errorf("shard %d labeled %d", i, sh.Shard)
		}
		if sh.Events == 0 {
			t.Errorf("shard %d processed no events", i)
		}
		if sh.MaxPending <= 0 {
			t.Errorf("shard %d has no pending high-water", i)
		}
		if sh.BusyNS < 0 || sh.StallNS < 0 {
			t.Errorf("shard %d has negative wall-clock telemetry: busy %d stall %d", i, sh.BusyNS, sh.StallNS)
		}
		sumEv += sh.Events
	}
	if sumEv != st.Events {
		t.Errorf("shard events sum %d != total events %d", sumEv, st.Events)
	}
	if imb := st.ShardImbalance(); imb < 1 || imb > 4 {
		t.Errorf("shard imbalance %.3f outside [1,4]", imb)
	}
	if got := st.WithoutTelemetry(); got.Shards != nil {
		t.Error("WithoutTelemetry kept the shard stats")
	}

	// Sequential runs expose the same surface with a single entry whose
	// event count matches the run's.
	seq, err := New(lft, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sst, err := seq.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sst.Shards) != 1 {
		t.Fatalf("sequential run has %d shard stats, want 1", len(sst.Shards))
	}
	if sst.Shards[0].Events != sst.Events {
		t.Errorf("sequential shard events %d != stats events %d", sst.Shards[0].Events, sst.Events)
	}
	if sst.ShardImbalance() != 1 {
		t.Errorf("sequential imbalance %.3f, want 1", sst.ShardImbalance())
	}
}

// TestShardTelemetryMetrics checks the labeled per-shard gauges reach
// the registry.
func TestShardTelemetryMetrics(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Metrics = obs.NewRegistry()
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run(shiftMsgs(n, 1, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.Shards {
		name := obs.Labeled("netsim_shard_events", "shard", fmt.Sprintf("%d", i))
		if got := cfg.Metrics.Gauge(name).Value(); got != int64(sh.Events) {
			t.Errorf("%s = %d, want %d", name, got, sh.Events)
		}
	}
	if cfg.Metrics.Gauge("netsim_shard_imbalance_milli").Value() < 1000 {
		t.Error("netsim_shard_imbalance_milli below 1000 (max/mean < 1 is impossible)")
	}
}

// TestProgressSink drives a sequential and a sharded run into one
// Progress and checks the counters accumulate across runs and the
// reporter emits lines.
func TestProgressSink(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	msgs := shiftMsgs(n, 1, 16<<10)
	p := &Progress{SimInterval: 2 * des.Microsecond}

	cfg := DefaultConfig()
	cfg.Progress = p
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Delivered != st.MessagesDelivered || s.Total != int64(len(msgs)) {
		t.Errorf("after run 1: snapshot %+v, want delivered %d total %d", s, st.MessagesDelivered, len(msgs))
	}
	if s.Events == 0 || s.SimTime == 0 {
		t.Errorf("after run 1: empty counters %+v", s)
	}

	// A sharded run on the same sink accumulates.
	cfg2 := DefaultConfig()
	cfg2.Progress = p
	cfg2.Shards = 2
	nw2, err := New(lft, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw2.Run(msgs); err != nil {
		t.Fatal(err)
	}
	s2 := p.Snapshot()
	if s2.Delivered != 2*int64(n) || s2.Total != 2*int64(n) {
		t.Errorf("after run 2: snapshot %+v, want delivered and total %d", s2, 2*n)
	}

	var out bytes.Buffer
	stop := p.Report(&out, time.Millisecond, "test")
	time.Sleep(20 * time.Millisecond)
	stop()
	if !strings.Contains(out.String(), "test: sim") {
		t.Errorf("reporter wrote %q, want progress lines", out.String())
	}
	if !strings.Contains(out.String(), "msgs 648/648 (100%)") {
		t.Errorf("reporter line lacks the message fraction: %q", out.String())
	}
}

// TestZeroObserverHotPathUnchanged is the deterministic half of the
// <=2% obs-overhead budget (BenchmarkNetsimObsOverhead tracks the
// precise number): with nothing attached the simulator must keep the
// nil observer, keep eager final-hop elision, and add no per-run
// allocations beyond the result bookkeeping.
func TestZeroObserverHotPathUnchanged(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	msgs := shiftMsgs(n, 1, 16<<10)
	nw, err := New(lft, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nw.ob != nil {
		t.Fatal("DefaultConfig built a simObs; the zero-observer path must keep ob nil")
	}
	if _, err := nw.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if !nw.eager {
		t.Fatal("DefaultConfig run disabled eager delivery; telemetry hooks must not cost the bare path")
	}
	// Steady-state allocations per run stay O(hosts), not O(events):
	// everything hot is pooled, so telemetry must not have added
	// per-event or per-packet garbage (a 324-host shift runs ~300k
	// events; the budget is two orders of magnitude under one each).
	avg := testing.AllocsPerRun(5, func() {
		if _, err := nw.Run(msgs); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 2 * float64(n); avg > limit {
		t.Errorf("bare run allocates %.0f times per run, want <= %.0f", avg, limit)
	}
}

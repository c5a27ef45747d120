package netsim

// Tests for the telemetry surface: the probe stream's per-link
// contention rollup, the event loop's closing gauges and the progress
// sink. The
// contention tests pin the paper's headline property end to end: a
// contention-free Shift on the 324-node cluster never queues more
// than one packet per channel, while a mis-ordered run does.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// shiftMsgs builds the s-shift permutation over n hosts.
func shiftMsgs(n int, s int, bytes int64) []Message {
	msgs := make([]Message, 0, n)
	for src := 0; src < n; src++ {
		msgs = append(msgs, Message{Src: src, Dst: (src + s) % n, Bytes: bytes})
	}
	return msgs
}

// parseRollups returns every rollup record of a probe JSONL stream, in
// stream order.
func parseRollups(t *testing.T, stream []byte) []schema.LinkRollup {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var rolls []schema.LinkRollup
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"rollup"`)) {
			continue
		}
		var roll schema.LinkRollup
		if err := json.Unmarshal(sc.Bytes(), &roll); err != nil {
			t.Fatalf("bad rollup line: %v", err)
		}
		rolls = append(rolls, roll)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rolls
}

// runWithProbes executes msgs on cluster324 with a probe sampler
// attached and returns the closing rollup.
func runWithProbes(t *testing.T, msgs []Message) schema.LinkRollup {
	t.Helper()
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Probes = obs.NewSampler(&buf, 5*des.Microsecond)
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Probes.Flush(); err != nil {
		t.Fatal(err)
	}
	// The schema header line is FileSinks' job; the raw sampler carries
	// the series and the rollup.
	if !strings.Contains(buf.String(), `"buffer_pkts"`) || !strings.Contains(buf.String(), `"link_util"`) {
		t.Fatal("probe stream is missing the buffer_pkts/link_util series")
	}
	rolls := parseRollups(t, buf.Bytes())
	if len(rolls) != 1 {
		t.Fatalf("probe stream carries %d rollup records, want 1", len(rolls))
	}
	return rolls[0]
}

// TestLinkRollupContentionFree pins the ISSUE-8 acceptance criterion's
// positive half: the paper's recommended configuration (D-Mod-K +
// identity shift stage) keeps every channel queue at depth <= 1 — a
// packet transmitting with nothing blocked behind it.
func TestLinkRollupContentionFree(t *testing.T) {
	n := topo.MustBuild(topo.Cluster324).NumHosts()
	for _, s := range []int{1, 5, n / 2} {
		roll := runWithProbes(t, shiftMsgs(n, s, 64<<10))
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
// rank-to-host mapping breaks the D-Mod-K alignment, and the rollup
// names at least one channel queuing more than one packet.
func TestLinkRollupMisordered(t *testing.T) {
	n := topo.MustBuild(topo.Cluster324).NumHosts()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	const s = 5
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		msgs = append(msgs, Message{Src: perm[i], Dst: perm[(i+s)%n], Bytes: 64 << 10})
	}
	roll := runWithProbes(t, msgs)
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

// TestStatsIdenticalWithTelemetry: attaching probes, a progress sink,
// or both must leave every timing of the run identical to the bare run;
// only the event count grows by their ticks. Runs under -race in CI.
func TestStatsIdenticalWithTelemetry(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	stages := [][]Message{
		shiftMsgs(n, 1, 2*2048),
		shiftMsgs(n, n/2, 3*2048),
	}
	run := func(t *testing.T, probes, progress bool) Stats {
		cfg := DefaultConfig()
		if probes {
			cfg.Probes = obs.NewSampler(&bytes.Buffer{}, 5*des.Microsecond)
		}
		if progress {
			cfg.Progress = &Progress{}
		}
		nw, err := New(lft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := nw.RunStages(stages)
		if err != nil {
			t.Fatal(err)
		}
		st.Events = 0
		return st
	}
	bare := run(t, false, false)
	for _, tc := range []struct {
		name             string
		probes, progress bool
	}{
		{"probes", true, false},
		{"progress", false, true},
		{"probes_and_progress", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.probes, tc.progress); !reflect.DeepEqual(got, bare) {
				t.Errorf("stats changed when telemetry attached:\n got %+v\nwant %+v", got, bare)
			}
		})
	}
}

// TestLinkRollupAgreesWithStats pins the rollup to the numbers it
// summarizes on one contended barrier run: one record per Run* call,
// the run's duration, each channel's busy time over that duration, and
// a deepest queue equal to the snapshot's netsim_link_max_queue_depth.
func TestLinkRollupAgreesWithStats(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	var stages [][]Message
	for _, s := range []int{1, 5} {
		var msgs []Message
		for i := 0; i < n; i++ {
			msgs = append(msgs, Message{Src: perm[i], Dst: perm[(i+s)%n], Bytes: 16 << 10})
		}
		stages = append(stages, msgs)
	}
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Probes = obs.NewSampler(&buf, 5*des.Microsecond)
	cfg.Metrics = obs.NewRegistry()
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.RunStages(stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Probes.Flush(); err != nil {
		t.Fatal(err)
	}
	rolls := parseRollups(t, buf.Bytes())
	if len(rolls) != 1 {
		t.Fatalf("one RunStages wrote %d rollup records, want 1", len(rolls))
	}
	roll := rolls[0]
	if roll.Rollup != schema.RollupLinks {
		t.Errorf("rollup kind %q, want %q", roll.Rollup, schema.RollupLinks)
	}
	if roll.DurationPS != int64(st.Duration) {
		t.Errorf("rollup duration %d ps, Stats.Duration %d ps", roll.DurationPS, st.Duration)
	}
	if len(roll.BusyFrac) != len(st.LinkBusy) || len(roll.MaxQueue) != len(st.LinkBusy) {
		t.Fatalf("rollup covers %d/%d channels, Stats %d", len(roll.BusyFrac), len(roll.MaxQueue), len(st.LinkBusy))
	}
	for i, b := range st.LinkBusy {
		if want := float64(b) / float64(st.Duration); roll.BusyFrac[i] != want {
			t.Errorf("channel %d: busy_frac %v, want %v", i, roll.BusyFrac[i], want)
		}
	}
	maxQ := int32(0)
	for _, d := range roll.MaxQueue {
		if d > maxQ {
			maxQ = d
		}
	}
	if maxQ <= 1 {
		t.Fatalf("max queue depth %d: the run is not contended, so the check is vacuous", maxQ)
	}
	if g := cfg.Metrics.Snapshot().Gauges["netsim_link_max_queue_depth"]; g != int64(maxQ) {
		t.Errorf("netsim_link_max_queue_depth = %d, rollup max %d", g, maxQ)
	}

	// A second call on the same Network appends its own record.
	if _, err := nw.Run(stages[0]); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Probes.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(parseRollups(t, buf.Bytes())); got != 2 {
		t.Errorf("two Run* calls wrote %d rollup records, want 2", got)
	}
}

// TestEventLoopGauges checks that the closing registry snapshot carries
// the event loop's own telemetry as plain netsim_ gauges: wall-clock
// busy time and the calendar queue's pressure counters beside the event
// count and queue high-water mark.
func TestEventLoopGauges(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run(shiftMsgs(n, 1, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Metrics.Snapshot().Gauges
	if got := g["netsim_events_executed"]; got != int64(st.Events) {
		t.Errorf("netsim_events_executed = %d, want %d", got, st.Events)
	}
	if g["netsim_busy_ns"] <= 0 {
		t.Errorf("netsim_busy_ns = %d, want > 0", g["netsim_busy_ns"])
	}
	for _, name := range []string{"netsim_event_queue_high_water", "netsim_calendar_slots_peak"} {
		if g[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, g[name])
		}
	}
	for _, name := range []string{"netsim_calendar_rebases", "netsim_calendar_overflow_peak"} {
		if _, ok := g[name]; !ok {
			t.Errorf("closing snapshot lacks %s", name)
		}
	}
}

// TestProgressSink drives two runs on separate Networks into one
// Progress and checks the counters accumulate across runs and the
// reporter emits lines.
func TestProgressSink(t *testing.T) {
	lft := route.DModK(topo.MustBuild(topo.Cluster324))
	n := lft.Topology().NumHosts()
	msgs := shiftMsgs(n, 1, 16<<10)
	p := &Progress{}

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

	// A second Network on the same sink accumulates.
	nw2, err := New(lft, cfg)
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
// nil observer, keep eager final-hop elision and queued arrivals, and
// add no per-run allocations beyond the result bookkeeping.
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
	// On a contended run the bare path also queues arrivals that land
	// behind a buffered packet at transmit time: every elided event past
	// the two per eager final hop is one of those.
	stages := contendedStages(n)
	if _, err := nw.RunStages(stages); err != nil {
		t.Fatal(err)
	}
	if eagerHops := 2 * packetCount(stages, DefaultConfig().MTU); nw.elided <= eagerHops {
		t.Fatalf("bare contended run elided %d events, no more than its %d eager final-hop events: no arrival was queued at transmit time",
			nw.elided, eagerHops)
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

package netsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

func fig1Messages() []Message {
	return []Message{
		{Src: 0, Dst: 5, Bytes: 4096},
		{Src: 1, Dst: 9, Bytes: 2048},
		{Src: 4, Dst: 0, Bytes: 6000},
	}
}

// TestObservabilityEquivalence mirrors internal/hsd's compiled
// equivalence test: enabling metrics and tracing must leave every Stats
// field bit-identical, and enabling probes may change only Events (the
// sampler's own ticks run on the scheduler).
func TestObservabilityEquivalence(t *testing.T) {
	lft := fig1LFT()
	msgs := fig1Messages()
	stages := [][]Message{msgs[:2], msgs[2:]}
	// Dependent semantics need stage-1 participants to have stage-0
	// activity to gate on — a 2-stage recursive-doubling slice.
	depStages := [][]Message{
		{{Src: 0, Dst: 1, Bytes: 4096}, {Src: 1, Dst: 0, Bytes: 4096}},
		{{Src: 0, Dst: 2, Bytes: 2048}, {Src: 1, Dst: 3, Bytes: 2048}},
	}

	type runFn func(nw *Network) (Stats, error)
	runs := []struct {
		name string
		fn   runFn
	}{
		{"async", func(nw *Network) (Stats, error) { return nw.Run([][]Message{msgs}, Async) }},
		{"barrier", func(nw *Network) (Stats, error) { return nw.Run(stages, Barrier) }},
		{"dependent", func(nw *Network) (Stats, error) { return nw.Run(depStages, Dependent) }},
	}
	for _, run := range runs {
		base := DefaultConfig()
		nw, err := New(lft, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.fn(nw)
		if err != nil {
			t.Fatalf("%s baseline: %v", run.name, err)
		}

		// Metrics + trace attached: everything identical.
		cfg := base
		cfg.Metrics = obs.NewRegistry()
		cfg.Trace = obs.NewTracer(&bytes.Buffer{})
		nw2, err := New(lft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.fn(nw2)
		if err != nil {
			t.Fatalf("%s instrumented: %v", run.name, err)
		}
		if err := cfg.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: metrics+trace perturbed Stats\nbase: %+v\nobs:  %+v", run.name, want, got)
		}
		if cfg.Metrics.Counter("netsim_messages_delivered_total").Value() != want.MessagesDelivered {
			t.Errorf("%s: registry delivered %d, stats %d", run.name,
				cfg.Metrics.Counter("netsim_messages_delivered_total").Value(), want.MessagesDelivered)
		}

		// Probes attached: identical except the sampler's own events.
		var probeOut bytes.Buffer
		cfg3 := base
		cfg3.Probes = obs.NewSampler(&probeOut, 2*des.Microsecond)
		nw3, err := New(lft, cfg3)
		if err != nil {
			t.Fatal(err)
		}
		got3, err := run.fn(nw3)
		if err != nil {
			t.Fatalf("%s probed: %v", run.name, err)
		}
		if err := cfg3.Probes.Flush(); err != nil {
			t.Fatal(err)
		}
		if got3.Events < want.Events {
			t.Errorf("%s: probed run executed fewer events (%d < %d)", run.name, got3.Events, want.Events)
		}
		got3.Events = want.Events
		if !reflect.DeepEqual(want, got3) {
			t.Errorf("%s: probes perturbed Stats beyond Events\nbase:   %+v\nprobed: %+v", run.name, want, got3)
		}
		if probeOut.Len() == 0 {
			t.Errorf("%s: no probe samples emitted", run.name)
		}
	}
}

// contendedStages is five shift-like stages over a seeded random
// permutation of the 324-host cluster: misordered ranks make D-Mod-K
// paths share links, so input buffers fill. Every message is four full
// packets and a last one of 300 or 800 bytes; at the default
// calibration those serialize in 75 ns and exactly 200 ns, under and
// at the 200 ns a header needs to land one hop on.
func contendedStages(n int) [][]Message {
	rng := rand.New(rand.NewSource(49))
	perm := rng.Perm(n)
	var stages [][]Message
	for _, s := range []int{1, 5, 17, 18, n / 2} {
		st := make([]Message, 0, n)
		for i := 0; i < n; i++ {
			last := int64(300)
			if rng.Intn(2) == 1 {
				last = 800
			}
			st = append(st, Message{Src: perm[i], Dst: perm[(i+s)%n], Bytes: 4*2048 + last})
		}
		stages = append(stages, st)
	}
	return stages
}

// packetCount is the number of MTU-sized or shorter packets msgs make.
func packetCount(stages [][]Message, mtu int) uint64 {
	var pkts uint64
	for _, st := range stages {
		for _, m := range st {
			pkts += uint64((m.Bytes-1)/int64(mtu) + 1)
		}
	}
	return pkts
}

// TestQueuedArrivalsMatchObservedRun holds the bare simulator's two
// shortcuts to the observed run where they bite: an arrival queued at
// transmit time behind a packet that cannot leave before the header
// lands, and a buffer head forwarded without the request FIFO.
// Attaching Metrics turns off both elisions (queued arrivals and eager
// final hops), so every Stats field, Events included, must match the
// bare run bit for bit in every mode and buffer size. At one or two
// buffer slots a buffer never holds two packets while a third is
// sent, so arrivals are queued only at eight. The last configuration
// injects four times faster than a link forwards, so a host sends its
// next packet before the previous header has landed in the leaf
// buffer: an arrival queued then would overtake the one still on the
// wire.
func TestQueuedArrivalsMatchObservedRun(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	stages := contendedStages(tp.NumHosts())
	pkts := packetCount(stages, DefaultConfig().MTU)
	modes := []struct {
		name string
		rt   func() route.Router
		run  func(nw *Network) (Stats, error)
		// finalHops is how many final hops the bare run delivers eagerly.
		finalHops uint64
	}{
		{"async", func() route.Router { return lft }, func(nw *Network) (Stats, error) { return nw.Run(stages, Async) }, pkts},
		{"barrier", func() route.Router { return lft }, func(nw *Network) (Stats, error) { return nw.Run(stages, Barrier) }, pkts},
		{"dependent", func() route.Router { return lft }, func(nw *Network) (Stats, error) { return nw.Run(stages, Dependent) }, 0},
		{"adaptive", func() route.Router { return route.NewAdaptive(tp, 3) }, func(nw *Network) (Stats, error) { return nw.Run(stages, Async) }, 0},
	}
	link := DefaultConfig().LinkBandwidth
	configs := []struct {
		slots  int
		hostBW float64 // 0 keeps the default
		queues bool    // every mode must queue an arrival
	}{{1, 0, false}, {2, 0, false}, {8, 0, true}, {8, 4 * link, false}}
	for _, mode := range modes {
		for _, c := range configs {
			cfg := DefaultConfig()
			cfg.BufferPackets = c.slots
			if c.hostBW > 0 {
				cfg.HostBandwidth = c.hostBW
			}
			name := fmt.Sprintf("%s/%d/host=%g", mode.name, c.slots, cfg.HostBandwidth)
			nw, err := New(mode.rt(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := mode.run(nw)
			if err != nil {
				t.Fatalf("%s bare: %v", name, err)
			}
			queued := nw.elided - 2*mode.finalHops
			if c.queues && queued == 0 {
				t.Errorf("%s: no arrival was queued at transmit time", name)
			}

			cfg.Metrics = obs.NewRegistry()
			nwObs, err := New(mode.rt(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := mode.run(nwObs)
			if err != nil {
				t.Fatalf("%s observed: %v", name, err)
			}
			if nwObs.elided != 0 {
				t.Errorf("%s: the observed run elided %d events", name, nwObs.elided)
			}
			if !reflect.DeepEqual(bare, observed) {
				t.Errorf("%s: bare run (%d arrivals queued) differs from the observed run\nbare:     %+v\nobserved: %+v",
					name, queued, bare, observed)
			}
		}
	}
}

// TestTraceGoldenSmallRun pins the full Chrome trace of a tiny
// deterministic run — the end-to-end golden for the trace exporter.
// Regenerate with `go test ./internal/netsim -run TraceGolden -update`.
func TestTraceGoldenSmallRun(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{2, 2}, []int{1, 1}, []int{1, 1}))
	lft := route.DModK(tp)
	cfg := DefaultConfig()
	var buf bytes.Buffer
	cfg.Trace = obs.NewTracer(&buf)
	cfg.TraceLabel = "golden"
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run([][]Message{
		{{Src: 0, Dst: 3, Bytes: 2048}},
		{{Src: 3, Dst: 0, Bytes: 2048}, {Src: 1, Dst: 2, Bytes: 4096}},
	}, Barrier); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_small_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace diverges from golden (%d vs %d bytes); run -update and inspect the diff",
			buf.Len(), len(want))
	}
}

// chromeTrace is the schema subset needed to validate exported traces.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

// TestTrace324RLFTValid runs one Shift stage of the paper's 324-node
// RLFT with full observability attached and validates the produced
// Chrome trace document — the acceptance check behind
// `ftsim -trace out.json -topo 324`.
func TestTrace324RLFTValid(t *testing.T) {
	if testing.Short() {
		t.Skip("324-node simulation in -short mode")
	}
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	cfg := DefaultConfig()
	var traceBuf, probeBuf bytes.Buffer
	cfg.Trace = obs.NewTracer(&traceBuf)
	cfg.Metrics = obs.NewRegistry()
	cfg.Probes = obs.NewSampler(&probeBuf, 10*des.Microsecond)
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{Src: i, Dst: (i + 5) % n, Bytes: 8 << 10}
	}
	st, err := nw.Run([][]Message{msgs}, Barrier)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Probes.Flush(); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(traceBuf.Bytes(), &ct); err != nil {
		t.Fatalf("324-node trace is not valid Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	phases := map[string]bool{}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		phases[ev.Ph] = true
		names[ev.Name] = true
	}
	for _, ph := range []string{"M", "i", "X", "C"} {
		if !phases[ph] {
			t.Errorf("trace lacks ph=%q events", ph)
		}
	}
	for _, name := range []string{"inject", "head-arrives", "deliver", "stage 0", "event_queue"} {
		if !names[name] {
			t.Errorf("trace lacks %q events", name)
		}
	}
	// Registry totals must agree with Stats.
	if got := cfg.Metrics.Counter("netsim_messages_delivered_total").Value(); got != st.MessagesDelivered {
		t.Errorf("metrics delivered %d, stats %d", got, st.MessagesDelivered)
	}
	if got := cfg.Metrics.Counter("netsim_bytes_delivered_total").Value(); got != st.BytesDelivered {
		t.Errorf("metrics bytes %d, stats %d", got, st.BytesDelivered)
	}
	// Probe JSONL must contain link_util samples with one value per
	// directed channel.
	var sawUtil bool
	for _, line := range strings.Split(strings.TrimSpace(probeBuf.String()), "\n") {
		var rec struct {
			T      int64     `json:"t_ps"`
			Series string    `json:"series"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad probe line %q: %v", line, err)
		}
		if rec.Series == "link_util" {
			sawUtil = true
			if len(rec.Values) != 2*len(tp.Links) {
				t.Fatalf("link_util has %d values, want %d", len(rec.Values), 2*len(tp.Links))
			}
		}
	}
	if !sawUtil {
		t.Error("no link_util samples in probe output")
	}
}

// TestProbeSnapshotWhileRunning samples the metrics registry from a
// second goroutine while the simulation runs — the -race proof that
// observability reads are safe concurrent with the hot path.
func TestProbeSnapshotWhileRunning(t *testing.T) {
	lft := fig1LFT()
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	var traceBuf bytes.Buffer
	cfg.Trace = obs.NewTracer(&traceBuf)
	nw, err := New(lft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			snap := cfg.Metrics.Snapshot()
			if snap.Counters["netsim_messages_delivered_total"] > 12 {
				t.Error("impossible delivery count")
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	msgs := make([]Message, 0, 12)
	for i := 0; i < 12; i++ {
		msgs = append(msgs, Message{Src: i % 16, Dst: (i + 7) % 16, Bytes: 64 << 10})
	}
	_, err = nw.Run([][]Message{msgs}, Async)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNetsimObsOverhead prices the observability tax on the
// simulator hot path, one Ring stage on the 324-node cluster: "off" is
// the nil-check-only baseline, "metrics" attaches the registry, and
// "full" adds probes and the Chrome tracer writing to discard sinks.
func BenchmarkNetsimObsOverhead(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(t)
	n := t.NumHosts()
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{Src: i, Dst: (i + 1) % n, Bytes: 64 << 10}
	}
	run := func(b *testing.B, cfg Config) {
		nw, err := New(lft, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nw.Run([][]Message{msgs}, Async); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, DefaultConfig()) })
	b.Run("metrics", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.Metrics = obs.NewRegistry()
		run(b, cfg)
	})
	b.Run("full", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.Probes = obs.NewSampler(io.Discard, 10*des.Microsecond)
		cfg.Trace = obs.NewTracer(io.Discard)
		run(b, cfg)
	})
}

package exp

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"fattree/internal/des"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/topo"
)

// renderAll runs a representative experiment slate and returns the
// rendered tables as one byte stream.
func renderAll(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	cf, err := ContentionFree(CFOpts{
		Cluster: topo.Cluster128, Bytes: 64 << 10, ShiftStages: 4,
		Config: netsim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RingAdversarial(RingOpts{
		Cluster: topo.Cluster324, Bytes: 64 << 10,
		Config: netsim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{cf, ring} {
		if err := tab.Render(&out); err != nil {
			t.Fatal(err)
		}
		if err := tab.RenderCSV(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestInstrumentPreservesResults mirrors internal/hsd's compiled-vs-walk
// equivalence test: attaching the full observability stack through the
// Instrument hook must leave every rendered experiment table
// byte-identical — observability reads the simulation, never steers it.
func TestInstrumentPreservesResults(t *testing.T) {
	if Instrument != nil {
		t.Fatal("Instrument already set")
	}
	base := renderAll(t)

	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	sampler := obs.NewSampler(io.Discard, 5*des.Microsecond)
	Instrument = func(cfg *netsim.Config) {
		cfg.Metrics = reg
		cfg.Trace = tracer
		cfg.Probes = sampler
	}
	defer func() { Instrument = nil }()
	instrumented := renderAll(t)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sampler.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(base, instrumented) {
		t.Errorf("instrumented experiment output diverged:\n--- off ---\n%s\n--- on ---\n%s",
			base, instrumented)
	}
	if reg.Counter("netsim_messages_delivered_total").Value() == 0 {
		t.Error("instrumented runs recorded no deliveries")
	}
	if !bytes.Contains(traceBuf.Bytes(), []byte(`"ph":`)) {
		t.Error("instrumented runs produced no trace events")
	}
}

// TestBatchObserversRunOneWorker pins mpi.SimulateAll's one-worker rule
// from the experiment side: with a tracer, a probe sampler and a progress
// sink attached, a Figure 2 batch writes exactly the bytes (and counts
// exactly the events) it writes when only one core is available.
func TestBatchObserversRunOneWorker(t *testing.T) {
	if Instrument != nil {
		t.Fatal("Instrument already set")
	}
	type sinks struct {
		table, trace, probes []byte
		progress             netsim.ProgressSnapshot
	}
	run := func(procs int) sinks {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var table, trace, probes bytes.Buffer
		tracer := obs.NewTracer(&trace)
		sampler := obs.NewSampler(&probes, 5*des.Microsecond)
		progress := &netsim.Progress{}
		Instrument = func(cfg *netsim.Config) {
			cfg.Trace = tracer
			cfg.Probes = sampler
			cfg.Progress = progress
		}
		defer func() { Instrument = nil }()
		tab, err := Figure2(Figure2Opts{
			Cluster: topo.Cluster128, Sizes: []int64{8 << 10, 32 << 10},
			ShiftStages: 2, Seed: 1, Config: netsim.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Render(&table); err != nil {
			t.Fatal(err)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sampler.Flush(); err != nil {
			t.Fatal(err)
		}
		return sinks{table.Bytes(), trace.Bytes(), probes.Bytes(), progress.Snapshot()}
	}
	one, many := run(1), run(4)
	if len(one.trace) == 0 || len(one.probes) == 0 || one.progress.Total == 0 {
		t.Fatalf("a sink stayed empty: %d trace bytes, %d probe bytes, %+v", len(one.trace), len(one.probes), one.progress)
	}
	for _, c := range []struct {
		name      string
		one, many []byte
	}{{"table", one.table, many.table}, {"trace", one.trace, many.trace}, {"probes", one.probes, many.probes}} {
		if !bytes.Equal(c.one, c.many) {
			t.Errorf("%s: %d bytes on one core, %d on four, contents differ", c.name, len(c.one), len(c.many))
		}
	}
	if one.progress != many.progress {
		t.Errorf("progress %+v on one core, %+v on four", one.progress, many.progress)
	}
}

// TestSimConfigNoHook asserts the hook-off path is an identity copy.
func TestSimConfigNoHook(t *testing.T) {
	if Instrument != nil {
		t.Fatal("Instrument already set")
	}
	cfg := netsim.DefaultConfig()
	got := simConfig(cfg)
	if got != cfg {
		t.Errorf("simConfig altered the config with no hook set")
	}
}

package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fattree/internal/des"
	"fattree/internal/schema"
)

// StreamHeader is the leading record of a probe JSONL stream: the
// internal/schema stamp that tells a consumer (cmd/ftreport above all)
// what it is parsing. The Chrome trace document carries its stamp under
// otherData instead (ignored by Perfetto, visible to parsers).
type StreamHeader struct {
	Schema string `json:"schema"`
}

// FileSinks wires the uniform -trace and -metrics command-line flags
// the cmd/* tools share: a Chrome trace-event file and a JSONL stream
// of time-series probes closed by a final registry snapshot. Typical
// use:
//
//	var sinks obs.FileSinks
//	sinks.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	if err := sinks.Open(); err != nil { ... }
//	cfg.Metrics, cfg.Probes, cfg.Trace = sinks.Registry, sinks.Sampler, sinks.Tracer
//	... run ...
//	err = sinks.Close()
//
// With neither flag set every field stays nil, so attaching the sinks
// to a netsim.Config keeps the simulator's observability disabled.
type FileSinks struct {
	TracePath   string
	MetricsPath string
	// ProbeEvery is the -probe-interval flag value: the probe sampling
	// period as a wall-clock style duration that is read as *simulated*
	// time (500ns of simulation, not of host runtime). Zero means
	// NewSampler's default of 1 us; a negative period is refused.
	ProbeEvery time.Duration

	Registry *Registry
	Tracer   *Tracer
	Sampler  *Sampler

	traceFile   *os.File
	metricsFile *os.File
}

// RegisterFlags adds -trace, -metrics and -probe-interval to fs.
func (s *FileSinks) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.TracePath, "trace", "",
		"write lifecycle events to `file` in Chrome trace-event format (open in Perfetto or chrome://tracing)")
	fs.StringVar(&s.MetricsPath, "metrics", "",
		"write metrics and time-series probes to `file` as JSONL")
	fs.DurationVar(&s.ProbeEvery, "probe-interval", 0,
		"probe sampling `period` of simulated time for -metrics (e.g. 500ns, 2us; default 1us)")
}

// Enabled reports whether any output flag was given.
func (s *FileSinks) Enabled() bool {
	return s != nil && (s.TracePath != "" || s.MetricsPath != "")
}

// Open creates the requested files and builds the sinks; a no-op when
// neither flag was given. A negative -probe-interval is an error either
// way.
func (s *FileSinks) Open() error {
	if s == nil {
		return nil
	}
	if s.ProbeEvery < 0 {
		return fmt.Errorf("-probe-interval %v: want a positive period of simulated time", s.ProbeEvery)
	}
	if !s.Enabled() {
		return nil
	}
	s.Registry = NewRegistry()
	if s.TracePath != "" {
		f, err := os.Create(s.TracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		s.traceFile = f
		s.Tracer = NewTracer(f)
	}
	if s.MetricsPath != "" {
		f, err := os.Create(s.MetricsPath)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		s.metricsFile = f
		// time.Duration is nanoseconds, des.Time picoseconds.
		s.Sampler = NewSampler(f, des.Time(s.ProbeEvery.Nanoseconds())*des.Nanosecond)
		s.Sampler.Record(StreamHeader{Schema: schema.Probes})
	}
	return nil
}

// Close appends the final registry snapshot to the metrics stream as a
// {"snapshot":{...}} record, terminates the trace document and closes
// both files, reporting the first error seen. Safe to call when Open
// was a no-op or never ran.
func (s *FileSinks) Close() error {
	if !s.Enabled() {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.Sampler != nil {
		s.Sampler.Record(struct {
			Snapshot Snapshot `json:"snapshot"`
		}{s.Registry.Snapshot()})
		keep(s.Sampler.Flush())
	}
	if s.Tracer != nil {
		keep(s.Tracer.Close())
	}
	if s.metricsFile != nil {
		keep(s.metricsFile.Close())
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
	}
	if first != nil {
		return fmt.Errorf("closing observability sinks: %w", first)
	}
	return nil
}

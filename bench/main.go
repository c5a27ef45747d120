// Command bench is the repository's benchmark: four named workloads,
// each checked for correctness, reporting the end-to-end metrics and the
// per-layer ledger declared in BENCHMARK.json. See README.md.
//
//	go run ./bench -workload fig2-sim324 -seed 1 -seconds 15 -trace 0
//	go run ./bench -workload all -seed 1 -out bench/out/A.json
//	go run ./bench -agree bench/out/A.json bench/out/B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloadFuncs maps a workload to its implementation. A workload
// returns every metric it measured, end-to-end and per-layer alike; rec
// is nil when tracing is off.
var workloadFuncs = map[string]func(runOpts, *recorder, *checker) (map[string]sample, error){
	wlFig2:  runFig2,
	wlSweep: runSweep,
	wlServe: runServe,
	wlChurn: runChurn,
}

// result is one run of one workload, as printed and as stored by -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reasons   []string          `json:"reasons,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value. N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// pass runs the workload once and rejects any metric the catalog does
// not declare.
func pass(o runOpts, rec *recorder, c *checker) (map[string]sample, error) {
	m, err := workloadFuncs[o.workload](o, rec, c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for name := range m {
		_, e2e := findMetric(endToEnd, name)
		_, layer := findMetric(perLayer, name)
		if !e2e && !layer {
			return nil, fmt.Errorf("%s emitted undeclared metric %q", o.workload, name)
		}
	}
	return m, nil
}

// runWorkload is one driver invocation. Untraced, it measures for
// o.seconds and reports every end-to-end metric. Traced, it splits the
// time between an untraced and a traced pass, reports every per-layer
// metric (0 where the workload gives that layer no work), and dumps the
// spans to traceDir.
func runWorkload(o runOpts, trace bool, traceDir string, log io.Writer) (*result, error) {
	res := &result{Workload: o.workload, Seed: o.seed, Trace: trace, Metrics: map[string]metric{}}
	o.log = log
	spin := refSpinMS()
	fmt.Fprintf(log, "# box speed: reference integer loop %.3f ms (compare runs only where this agrees)\n", spin)
	c := &checker{}
	if !trace {
		m, err := pass(o, nil, c)
		if err != nil {
			return nil, err
		}
		for _, d := range endToEnd {
			s, ok := m[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", o.workload, d.Name)
			}
			res.Metrics[d.Name] = metric{s.Value, d.Unit, s.N}
		}
	} else {
		o.ledger = true
		o.seconds /= 2
		base, err := pass(o, nil, c)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		traced, err := pass(o, rec, c)
		if err != nil {
			return nil, err
		}
		traced["trace.overhead_pct"] = sample{100 * relDiff(base["op_ms"].Value, traced["op_ms"].Value), traced["op_ms"].N}
		traced["trace.layer_cover_pct"] = sample{rec.layerCover(), rec.numSpans()}
		traced["host.ref_spin_ms"] = one(spin)
		for _, d := range perLayer {
			s, ok := traced[d.Name]
			if d.Untraced {
				s, ok = base[d.Name]
			}
			if !ok && d.measuredOn(o.workload) {
				return nil, fmt.Errorf("%s did not measure %s", o.workload, d.Name)
			}
			if ok && !d.measuredOn(o.workload) {
				return nil, fmt.Errorf("%s measured %s, which the catalog does not expect of it", o.workload, d.Name)
			}
			res.Metrics[d.Name] = metric{s.Value, d.Unit, s.N}
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s.seed%d.trace.json", o.workload, o.seed))
		if err := rec.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %s: %d spans -> %s\n", o.workload, rec.numSpans(), path)
		printSelfTimes(log, rec)
	}
	res.Attempted, res.Failed, res.Reasons = c.attempted, c.failed, c.reasons
	res.Correct = c.failed == 0 && c.attempted > 0
	return res, nil
}

// printSelfTimes prints each layer's self time in the traced pass.
func printSelfTimes(w io.Writer, rec *recorder) {
	self := rec.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "#   self time %-8s %12.3f ms\n", l, ms(self[l]))
	}
}

// printResult writes the human-readable table: every metric by name,
// with its unit and the sample count behind it.
func printResult(w io.Writer, r *result) {
	kind, defs := "end-to-end", endToEnd
	if r.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d %s (loopback TCP, not a real link; host time unless the name says sim)\n", r.Workload, r.Seed, kind)
	for _, d := range defs {
		mt := r.Metrics[d.Name]
		if r.Trace && !d.measuredOn(r.Workload) {
			continue
		}
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", d.Name, mt.Value, mt.Unit, mt.N)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_share=%g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, reason := range r.Reasons {
		fmt.Fprintf(w, "FAILED: %s\n", reason)
	}
}

// lastLine renders the driver's result object for a set of runs;
// metric names are prefixed with the workload when there are several.
func lastLine(results []*result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, mt := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = mv{mt.Value, mt.Unit}
		}
	}
	return json.Marshal(out)
}

// environment describes where the numbers were taken.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func currentEnv() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Network:    "loopback TCP, not a real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultSet is the -out file: the runs of one commit on one box.
type resultSet struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Runs   []*result   `json:"runs"`
}

const resultSchema = "fattree-perfbench/v1"

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rs.Schema, resultSchema)
	}
	return &rs, nil
}

// appendResults adds runs to the set at path, creating it if missing, so
// a shell loop of fresh processes builds one set.
func appendResults(path string, runs []*result) error {
	rs, err := readResultSet(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = &resultSet{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	rs.Env = currentEnv()
	rs.Runs = append(rs.Runs, runs...)
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "one of "+strings.Join(allWorkloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "drives orderings, pair batches and the fault script")
	seconds := fs.Float64("seconds", runSeconds, "timed region of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	repeats := fs.Int("repeats", 1, "with -workload all: passes over the workloads, order reversed on every second pass")
	out := fs.String("out", "", "append the runs to this result-set file (for -agree)")
	agree := fs.Bool("agree", false, "compare two result-set files: bench -agree A.json B.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *printManifest:
		data, err := manifest()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	case *agree:
		if fs.NArg() != 2 {
			return errors.New("-agree wants two result-set files")
		}
		return agreeFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive duration", *seconds)
	}

	// The box has two cores; more than four would not be this benchmark.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	env := currentEnv()
	fmt.Fprintf(stdout, "# env: nproc=%d GOMAXPROCS=%d %s commit=%s; %s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Network)

	var results []*result
	runOne := func(name string, traced bool) error {
		debug.FreeOSMemory() // start every workload from the same heap
		r, err := runWorkload(runOpts{workload: name, seed: *seed, seconds: *seconds, sz: paperSizes()},
			traced, filepath.Join("bench", "out"), stdout)
		if err != nil {
			return err
		}
		printResult(stdout, r)
		results = append(results, r)
		return nil
	}
	if *workload == "all" {
		// Everything by name in one command: each workload untraced, then
		// traced. Alternate the order so drift does not favour a workload.
		for rep := 0; rep < *repeats; rep++ {
			order := append([]string(nil), allWorkloads...)
			if rep%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, name := range order {
				for _, traced := range []bool{false, true} {
					if err := runOne(name, traced); err != nil {
						return err
					}
				}
			}
		}
	} else {
		if _, ok := workloadFuncs[*workload]; !ok {
			return fmt.Errorf("unknown workload %q (have %s, all)", *workload, strings.Join(allWorkloads, ", "))
		}
		if err := runOne(*workload, *trace == 1); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return err
		}
	}
	line, err := lastLine(results)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

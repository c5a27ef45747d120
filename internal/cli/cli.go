// Package cli is the command skeleton the cmd/* tools share: the flags
// every tool spells the same way (-topo, -engine, -seed, -drop, the obs
// sinks, pprof) and one lifecycle — parse, open sinks, start profile,
// run, stop and close on every path, one exit-code rule. A main.go is a
// setup function that declares flags on an App and returns the body to
// run; everything a body resolves by name lives next to the object it
// names (engine.Resolve, order.ByName, mpi.SequenceByName). The package
// holds no experiment logic and renders nothing but the -engine list.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"fattree/internal/engine"
	"fattree/internal/obs"
	"fattree/internal/obs/prof"
	"fattree/internal/topo"
)

// ErrFailed is returned by a body whose output already carries a failing
// verdict (ftcheck's FAILED): exit 1, no message.
var ErrFailed = errors.New("failed")

// App is one command invocation: its flag set, its output streams and
// the shared resources whose lifecycle Main owns.
type App struct {
	// Flags takes the command's own flags.
	Flags *flag.FlagSet
	// Stderr is for warnings and progress; results go to the body's writer.
	Stderr io.Writer

	engine *string
	sinks  *obs.FileSinks
	prof   *prof.Profiles
}

// Topo registers -topo.
func (a *App) Topo(def string) *string {
	return a.Flags.String("topo", def, "topology spec (see internal/topo.ParseSpec)")
}

// Engine registers -engine; Main answers "-engine list" itself.
func (a *App) Engine() *string {
	a.engine = a.Flags.String("engine", "", "routing engine by name (default "+engine.Default+"; \"list\" prints them)")
	return a.engine
}

// Seed registers -seed with the command's default and meaning.
func (a *App) Seed(def int64, usage string) *int64 {
	return a.Flags.Int64("seed", def, usage)
}

// Sinks registers -trace, -metrics and -probe-interval; Main opens the
// sinks before the body runs and closes them after.
func (a *App) Sinks() *obs.FileSinks {
	a.sinks = &obs.FileSinks{}
	a.sinks.RegisterFlags(a.Flags)
	return a.sinks
}

// Profile registers -cpuprofile/-memprofile; Main starts and stops them.
func (a *App) Profile() { a.prof = prof.Register(a.Flags) }

// Drop is the -drop/-drop-seed pair: a partial job by random exclusion.
type Drop struct {
	N    int
	Seed int64
}

// Drop registers -drop and -drop-seed.
func (a *App) Drop() *Drop {
	d := &Drop{}
	a.Flags.IntVar(&d.N, "drop", 0, "randomly exclude this many end-ports (partial job)")
	a.Flags.Int64Var(&d.Seed, "drop-seed", 1, "seed for the exclusion draw")
	return d
}

// Active draws the surviving end-ports of a numHosts cluster; nil (the
// whole cluster) when nothing is dropped.
func (d *Drop) Active(numHosts int) ([]int, error) {
	if d.N <= 0 {
		return nil, nil
	}
	if d.N >= numHosts {
		return nil, fmt.Errorf("cannot -drop %d of %d end-ports", d.N, numHosts)
	}
	perm := rand.New(rand.NewSource(d.Seed)).Perm(numHosts)
	return perm[d.N:], nil
}

// BuildTopo parses a -topo spec and builds the topology; the parsed
// tuple is t.Spec.
func BuildTopo(spec string) (*topo.Topology, error) {
	g, err := topo.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return topo.Build(g)
}

// Main runs one command: setup declares the flags and returns the body.
// It returns the process exit code: 2 for a bad command line, 1 when the
// body (or closing what Main opened) fails, 0 otherwise.
func Main(name string, args []string, stdout, stderr io.Writer, setup func(*App) func(io.Writer) error) int {
	a := &App{Flags: flag.NewFlagSet(name, flag.ContinueOnError), Stderr: stderr}
	a.Flags.SetOutput(stderr)
	body := setup(a)
	if err := a.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if a.engine != nil && *a.engine == "list" {
		for _, info := range engine.Infos() {
			var props []string
			if info.LFT {
				props = append(props, "lft")
			}
			if info.FaultAware {
				props = append(props, "fault-aware")
			}
			fmt.Fprintf(stdout, "%-16s %-13s %s\n", info.Name, strings.Join(props, ","), info.Description)
		}
		return 0
	}
	err := a.sinks.Open()
	if err == nil {
		err = a.prof.Start()
	}
	if err == nil {
		err = body(stdout)
	}
	if perr := a.prof.Stop(); err == nil {
		err = perr
	}
	if cerr := a.sinks.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		return 0
	}
	if !errors.Is(err, ErrFailed) {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return 1
}

// Package prof is the shared pprof flag wiring of the cmd/* tools: it
// registers -cpuprofile and -memprofile on a FlagSet and manages the
// profile lifecycles. internal/cli's App.Profile and Main drive it for
// every command:
//
//	pf := prof.Register(fs)
//	fs.Parse(args)
//	if err := pf.Start(); err != nil { ... }
//	err := run(...)
//	if perr := pf.Stop(); err == nil { err = perr }
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the flag values and the live CPU profile handle.
type Profiles struct {
	cpu, mem string
	cpuFile  *os.File
}

// Register adds -cpuprofile/-memprofile to fs and returns the handle to
// start/stop them around the program's work.
func Register(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to `file` on exit")
	return p
}

// Start begins CPU profiling if -cpuprofile was given.
func (p *Profiles) Start() error {
	if p == nil || p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the heap profile if
// requested. Safe to call when Start was a no-op or never ran.
func (p *Profiles) Stop() error {
	if p == nil {
		return nil
	}
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("memprofile: %w", err)
			}
			return first
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("memprofile: %w", err)
		}
	}
	return first
}

// Package engine is the pluggable routing-engine layer: a registry of
// named Builders, each of which binds a routing algorithm to a topology
// and produces forwarding tables (plus the compiled path arena and the
// fault collateral) for any fault state of that fabric. The paper's
// D-Mod-K, its ablation baselines and the source-based S-Mod-K are all
// registered through it. Every fault-aware
// engine repairs a fault the same way: it reroutes only the destination
// columns the dead links touched and re-walks only those columns of the
// healthy arena ("fault-resilient" is a second name for dmodk). The
// fabric manager and the CLIs select engines by name from this registry,
// so adding an engine is one Register call (see docs/ROUTING.md).
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Options tunes a Builder. The zero value is always valid.
type Options struct {
	// Seed drives randomized engines (minhop-random).
	Seed int64
	// Active names the end-ports of a partial job: dmodk spreads
	// destinations by their rank among them (route.DModKActive) instead
	// of by raw index. Nil means the whole cluster; every other engine
	// refuses a non-nil set.
	Active []int
}

// Tables is one engine's routing product for one fault state of the
// fabric. Everything is immutable once returned.
type Tables struct {
	// LFT is the destination-based forwarding-table realization — what a
	// subnet manager would program into switches. Nil for engines that
	// cannot be expressed as one (s-mod-k is source-based).
	LFT *route.LFT
	// Compiled is the packed path arena over the routing, with pairs the
	// fault state leaves unservable recorded as broken. Never nil: every
	// walk, analysis and routing label goes through it.
	Compiled *route.Compiled
	// Unroutable lists hosts that lost every uplink, ascending.
	Unroutable []int
	// BrokenPairs counts ordered pairs between routable hosts left
	// without a served minimal path.
	BrokenPairs int
}

// Engine produces tables for successive fault states of one topology.
// Implementations may cache work across calls (a fault-aware engine keeps
// its healthy tables and arena); each Tables call must stand alone
// against the fault set it is given, never against a previous one.
type Engine interface {
	// Name echoes the registry name the engine was built under.
	Name() string
	// Tables computes routing tables for the given fault state. A nil
	// fault set means a healthy fabric. fs must be over the same
	// topology the engine was built for.
	Tables(fs *fabric.FaultSet) (*Tables, error)
}

// Builder binds an engine to a topology.
type Builder func(t *topo.Topology, opts Options) (Engine, error)

var (
	regMu    sync.RWMutex
	registry = map[string]regEntry{}
)

type regEntry struct {
	info Info
	b    Builder
}

// Info describes a registered routing engine for the -engine list
// listing.
type Info struct {
	Name        string
	Description string
	// LFT reports whether the engine produces destination-based
	// forwarding tables programmable into InfiniBand-style hardware.
	LFT bool
	// FaultAware reports whether the engine actively reroutes around
	// dead links, rather than only refusing the pairs they break.
	FaultAware bool
}

// Register adds an engine to the registry. It panics on an empty name,
// nil builder or duplicate registration — all programming errors, caught
// at init time.
func Register(info Info, b Builder) {
	if info.Name == "" {
		panic("engine: Register with empty name")
	}
	if b == nil {
		panic(fmt.Sprintf("engine: Register(%q) with nil builder", info.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("engine: Register(%q) called twice", info.Name))
	}
	registry[info.Name] = regEntry{info: info, b: b}
}

// Build instantiates a registered engine for a topology; the empty name
// is Default. An unknown name is an error that lists every registered
// engine, so a typo on a -engine flag or an API request is
// self-correcting.
func Build(name string, t *topo.Topology, opts Options) (Engine, error) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	if opts.Active != nil && name != Default {
		return nil, fmt.Errorf("engine: an active set requires %s (rank-compacted tables), not %s", Default, name)
	}
	return e.b(t, opts)
}

// Resolve builds the named engine and returns its tables for one fault
// state (nil = healthy) — what a one-shot caller such as a CLI or an
// experiment wants from the registry.
func Resolve(name string, t *topo.Topology, opts Options, fs *fabric.FaultSet) (*Tables, error) {
	e, err := Build(name, t, opts)
	if err != nil {
		return nil, err
	}
	return e.Tables(fs)
}

// Names returns the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos returns the registered engine descriptors, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Default is the engine the daemon and CLIs use when none is selected:
// the paper's D-Mod-K, repaired around faults by fabric.Reroute over the
// columns the dead links touched — RouteAround's tables, at the cost of
// those columns alone.
const Default = "dmodk"

// brokenAmongRoutable converts an arena's total broken count into the
// count excluding pairs touching unroutable hosts (those pairs are
// always broken and say nothing about the engine's repair quality).
func brokenAmongRoutable(n, numBroken int, unroutable []int) int {
	u := len(unroutable)
	b := numBroken - (2*u*(n-1) - u*(u-1))
	if b < 0 {
		b = 0
	}
	return b
}

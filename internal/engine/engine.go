// Package engine names the routings the analysis commands choose with
// -engine: the paper's D-Mod-K, its ablation baselines and the
// source-based S-Mod-K, a closed list that Build switches over. Every
// name binds a router to a topology and answers each fault state with
// fabric.Tables: D-Mod-K through fabric's one repair
// ((*FaultSet).Repair), every baseline through (*FaultSet).Refuse, which
// breaks the pairs a dead link cuts instead of rerouting them.
// "fault-resilient" is a second name for dmodk, and the Engine interface
// is what a built name is, both kept only because the repository
// benchmark (bench/) names them. The fabric-manager daemon does not come
// through here: it serves D-Mod-K and repairs it with fabric directly.
package engine

import (
	"fmt"
	"strings"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Options tunes Build. The zero value is always valid.
type Options struct {
	// Seed drives randomized engines (minhop-random).
	Seed int64
	// Active names the end-ports of a partial job: dmodk spreads
	// destinations by their rank among them (route.DModKActive) instead
	// of by raw index. Nil means the whole cluster; every other engine
	// refuses a non-nil set.
	Active []int
}

// Engine produces tables for successive fault states of one topology,
// keeping its healthy tables across calls; each Tables call stands alone
// against the fault set it is given. Kept as a type because bench/ holds
// built engines by it.
type Engine interface {
	// Tables computes routing tables for the given fault state. A nil
	// fault set means a healthy fabric. fs must be over the same
	// topology the engine was built for.
	Tables(fs *fabric.FaultSet) (*fabric.Tables, error)
}

// Info describes an engine for the -engine list listing.
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

// Default is the engine the CLIs use when none is selected: the paper's
// D-Mod-K, repaired around faults by (*fabric.FaultSet).Repair.
const Default = "dmodk"

// Infos returns every engine's descriptor, sorted by name.
func Infos() []Info {
	return []Info{
		{"dmodk", "paper's D-Mod-K (equation 1); reroutes with per-destination down-cone growth", true, true},
		{"dmodk-naive", "textbook D-Mod-K without the parallel-copy down rule; fault-oblivious baseline", true, false},
		{"fault-resilient", "dmodk under a second name: the same tables and the same fault reroute", true, true},
		{"minhop-random", "seeded random minimal up-port selection; fault-oblivious baseline", true, false},
		{"smodk", "source-based S-Mod-K; spreads by source index, no forwarding-table realization", false, false},
	}
}

// Build instantiates a named engine for a topology; the empty name is
// Default. An unknown name is an error that lists every engine, so a
// typo on a -engine flag is self-correcting.
func Build(name string, t *topo.Topology, opts Options) (Engine, error) {
	if name == "" {
		name = Default
	}
	var rt route.Router
	switch name {
	case "dmodk", "fault-resilient": // the second name only while bench/ names it
		rt = route.DModK(t)
	case "dmodk-naive":
		rt = route.DModKNaive(t)
	case "minhop-random":
		rt = route.MinHopRandom(t, opts.Seed)
	case "smodk":
		rt = route.NewSModK(t)
	default:
		names := make([]string, 0, 5)
		for _, info := range Infos() {
			names = append(names, info.Name)
		}
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %s)", name, strings.Join(names, ", "))
	}
	e := &tables{repair: name == "dmodk" || name == "fault-resilient"}
	var err error
	if opts.Active != nil {
		if name != Default {
			return nil, fmt.Errorf("engine: an active set requires %s (rank-compacted tables), not %s", Default, name)
		}
		// Malformed sets (duplicates, out-of-range hosts) surface here as
		// errors. A repair spreads by the same compacted rank.
		if e.rank, err = route.ActiveRanks(t.NumHosts(), opts.Active); err != nil {
			return nil, err
		}
		if rt, err = route.DModKActive(t, opts.Active); err != nil {
			return nil, err
		}
	}
	if e.healthy, err = fabric.Healthy(rt); err != nil {
		return nil, err
	}
	return e, nil
}

// Resolve builds the named engine and returns its tables for one fault
// state (nil = healthy) — what a one-shot caller such as a CLI wants.
func Resolve(name string, t *topo.Topology, opts Options, fs *fabric.FaultSet) (*fabric.Tables, error) {
	e, err := Build(name, t, opts)
	if err != nil {
		return nil, err
	}
	return e.Tables(fs)
}

// tables is every engine: healthy tables, and under faults either the
// repair (D-Mod-K, by rank) or the refusal (a baseline).
type tables struct {
	healthy *fabric.Tables
	rank    []int
	repair  bool
}

func (e *tables) Tables(fs *fabric.FaultSet) (*fabric.Tables, error) {
	switch {
	case fs == nil:
		return e.healthy, nil
	case e.repair:
		return fs.Repair(e.healthy, e.rank)
	}
	return fs.Refuse(e.healthy)
}

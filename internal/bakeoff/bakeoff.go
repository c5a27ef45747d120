// Package bakeoff runs every registered routing engine through an
// escalating fault storm on a seeded fabric and scores each one on
// routability, Shift contention (HSD), reroute wall-clock latency and —
// optionally — simulated max queue depth. This is the comparative
// methodology of the Gliksberg fault-resiliency paper applied to the
// repository's engine registry: the same fabric, the same faults, every
// engine, one schema-stamped verdict (fattree-bakeoff/v1) that
// cmd/ftbakeoff emits and ftreport html renders as a comparison table
// with degradation curves.
package bakeoff

import (
	"time"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/order"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// Config parameterizes a bake-off run.
type Config struct {
	// Topo is the fabric under test (required).
	Topo *topo.Topology
	// Engines lists the engines to race; nil races every registered one.
	Engines []string
	// Seed drives the fault draws and seeded engines.
	Seed int64
	// Sim enables the netsim queue-depth probe (slower).
	Sim bool
	// Bytes is the per-message payload when Sim is on (default 64 KiB).
	Bytes int64
	// SimStages caps how many Shift stages are simulated per cell,
	// spread evenly across the sequence (default 4).
	SimStages int
}

// FaultLevel is one named fault set of the storm.
type FaultLevel struct {
	Name string
	FS   *fabric.FaultSet
}

// StormLevels builds the default escalating storm: healthy fabric, one
// random fabric link, every link of one top-level switch, and a
// correlated leaf-spine failure (half of one leaf's uplinks plus one
// random link) — the three degradation regimes of the fault-resiliency
// literature on top of the baseline.
func StormLevels(t *topo.Topology, seed int64) ([]FaultLevel, error) {
	g := t.Spec
	levels := []FaultLevel{{Name: "healthy", FS: fabric.NewFaultSet(t)}}

	one := fabric.NewFaultSet(t)
	if err := one.FailRandomFabricLinks(1, seed); err != nil {
		return nil, err
	}
	levels = append(levels, FaultLevel{Name: "1-link", FS: one})

	// A whole top-level switch: every down link of one spine dies, the
	// way a bricked switch or a powered-off line card looks to the SM.
	top := t.ByLevel[g.H]
	sw := fabric.NewFaultSet(t)
	node := t.Node(top[int(seed%int64(len(top)))])
	for _, pid := range node.Down {
		sw.Fail(t.Ports[pid].Link)
	}
	levels = append(levels, FaultLevel{Name: "spine-switch", FS: sw})

	// Correlated leaf-spine: half of one leaf's uplinks plus a random
	// fabric link elsewhere — the multi-point damage a cable bundle cut
	// or a rack-level power event produces.
	leaf := t.Node(t.ByLevel[1][0])
	ls := fabric.NewFaultSet(t)
	for i, pid := range leaf.Up {
		if i%2 == 0 {
			ls.Fail(t.Ports[pid].Link)
		}
	}
	if err := ls.FailRandomFabricLinks(1, seed+1); err != nil {
		return nil, err
	}
	levels = append(levels, FaultLevel{Name: "leaf-spine", FS: ls})
	return levels, nil
}

// Run races the engines through the storm and assembles the verdict.
// Engine build failures abort; per-level table failures are recorded in
// the cell and the race continues.
func Run(cfg Config) (*schema.BakeoffDoc, error) {
	t := cfg.Topo
	names := cfg.Engines
	if names == nil {
		names = engine.Names()
	}
	levels, err := StormLevels(t, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Bytes == 0 {
		cfg.Bytes = 64 << 10
	}
	if cfg.SimStages == 0 {
		cfg.SimStages = 4
	}

	doc := &schema.BakeoffDoc{Schema: schema.Bakeoff, Topology: t.Spec.String(), Hosts: t.NumHosts(), Seed: cfg.Seed}
	byName := make(map[string]schema.EngineInfo)
	for _, info := range engine.Infos() {
		byName[info.Name] = info
	}
	engines := make(map[string]engine.Engine, len(names))
	for _, name := range names {
		e, err := engine.Build(name, t, engine.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		engines[name] = e
		doc.Engines = append(doc.Engines, byName[name])
	}

	for _, lv := range levels {
		level := schema.BakeoffLevel{Name: lv.Name, FailedLinks: []int{}}
		for _, l := range lv.FS.FailedLinks() {
			level.FailedLinks = append(level.FailedLinks, int(l))
		}
		for _, name := range names {
			level.Engines = append(level.Engines, scoreCell(t, engines[name], lv.FS, cfg))
		}
		doc.Levels = append(doc.Levels, level)
	}
	return doc, nil
}

// scoreCell races one engine against one fault level.
func scoreCell(t *topo.Topology, e engine.Engine, fs *fabric.FaultSet, cfg Config) schema.BakeoffResult {
	res := schema.BakeoffResult{Engine: e.Name(), MaxQueueDepth: -1}
	start := time.Now()
	tb, err := e.Tables(fs)
	res.RerouteUS = time.Since(start).Microseconds()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	n := t.NumHosts()
	res.RoutabilityPct = 100 * tb.Routability(n)
	res.Unroutable = len(tb.Unroutable)
	res.BrokenPairs = tb.BrokenPairs

	// Shift over the served pairs, ranks on end-ports in index order:
	// the degradation the paper's headline metric suffers at this level.
	seq := cps.Shift(n)
	rep, err := hsd.Analyze(tb.Compiled, order.Topology(n, nil), seq)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.MaxHSD, res.AvgMaxHSD, res.ContentionFree = rep.MaxHSD(), rep.AvgMaxHSD(), rep.ContentionFree()

	if cfg.Sim {
		depth, err := simQueueDepth(tb, seq, cfg)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.MaxQueueDepth = depth
	}
	return res
}

// simQueueDepth replays a sampled subset of Shift stages through netsim
// and reports the worst input-buffer depth any link saw.
func simQueueDepth(tb *engine.Tables, seq cps.Sequence, cfg Config) (int64, error) {
	reg := obs.NewRegistry()
	sc := netsim.DefaultConfig()
	sc.Metrics = reg
	nw, err := netsim.New(tb.Compiled, sc)
	if err != nil {
		return 0, err
	}
	step := seq.NumStages() / cfg.SimStages
	if step == 0 {
		step = 1
	}
	var stages [][]netsim.Message
	for s := 0; s < seq.NumStages(); s += step {
		var msgs []netsim.Message
		for _, p := range seq.Stage(s) {
			if p.Src != p.Dst && !tb.Compiled.Broken(int(p.Src), int(p.Dst)) {
				msgs = append(msgs, netsim.Message{Src: int(p.Src), Dst: int(p.Dst), Bytes: cfg.Bytes})
			}
		}
		if len(msgs) > 0 {
			stages = append(stages, msgs)
		}
	}
	if len(stages) == 0 {
		return 0, nil
	}
	if _, err := nw.RunStages(stages); err != nil {
		return 0, err
	}
	return reg.Gauge("netsim_link_max_queue_depth").Value(), nil
}

package netsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fattree/internal/des"
	"fattree/internal/invariant"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// quietModes are the ways a drawn schedule runs.
var quietModes = []string{"async", "barrier", "dependent", "jitter"}

// quietDraw is one configuration of the quiet ≡ observed differential: a
// fabric, a simulator configuration, a schedule of partial permutations
// and how it runs.
type quietDraw struct {
	what     string
	tp       *topo.Topology
	lft      *route.LFT
	cfg      netsim.Config
	adaptive bool // route per packet through route.NewAdaptive(tp, seed)
	mode     string
	stages   [][]netsim.Message
	jitter   des.Time
	seed     int64
}

// drawQuiet draws the configuration of one seed over the space the
// simulator accepts: a RandPGFT or RandRLFT fabric (up to 512 hosts),
// 1-8 buffer slots, a host rate from 0.25x to 8x the link rate, an MTU
// from 256 to 4096 bytes, link and switch latencies from 0 to twice the
// default, and 1-5 random partial permutations of messages of up to 40
// MTUs, run in any mode, over D-Mod-K tables or the adaptive router.
func drawQuiet(seed int64) quietDraw {
	r := rand.New(rand.NewSource(seed))
	var g topo.PGFT
	for g.NumHosts() < 2 {
		if r.Intn(2) == 0 {
			g = invariant.RandPGFT(r.Int63())
		} else {
			g = invariant.RandRLFT(r.Int63())
		}
	}
	q := quietDraw{tp: topo.MustBuild(g), cfg: netsim.DefaultConfig(), seed: seed}
	q.lft = route.DModK(q.tp)
	q.cfg.BufferPackets = 1 + r.Intn(8)
	q.cfg.HostBandwidth = q.cfg.LinkBandwidth / 4 * float64(int(1)<<r.Intn(6))
	q.cfg.MTU = 256 + r.Intn(4096-256+1)
	q.cfg.LinkLatency = des.Time(r.Int63n(int64(2*q.cfg.LinkLatency) + 1))
	q.cfg.SwitchLatency = des.Time(r.Int63n(int64(2*q.cfg.SwitchLatency) + 1))
	q.adaptive = r.Intn(4) == 0
	q.mode = quietModes[r.Intn(len(quietModes))]
	if q.mode == "jitter" {
		q.jitter = des.Time(r.Int63n(int64(2 * des.Microsecond)))
	}
	n := g.NumHosts()
	for k := 1 + r.Intn(5); k > 0; k-- {
		perm, shift := r.Perm(n), 1+r.Intn(n-1)
		st := make([]netsim.Message, 1+r.Intn(n))
		for i := range st {
			st[i] = netsim.Message{Src: perm[i], Dst: perm[(i+shift)%n], Bytes: 1 + r.Int63n(int64(40*q.cfg.MTU))}
		}
		q.stages = append(q.stages, st)
	}
	q.what = fmt.Sprintf("seed %d: %v, %d slots, host %gx, MTU %d, latency %v+%v, adaptive %v, %s over %d stages",
		seed, g, q.cfg.BufferPackets, q.cfg.HostBandwidth/q.cfg.LinkBandwidth, q.cfg.MTU,
		q.cfg.LinkLatency, q.cfg.SwitchLatency, q.adaptive, q.mode, len(q.stages))
	return q
}

// run simulates the draw under cfg. The adaptive router carries RNG
// state, so every run builds its own from the draw's seed.
func (q quietDraw) run(cfg netsim.Config) (netsim.Stats, error) {
	var rt route.Router = q.lft
	if q.adaptive {
		rt = route.NewAdaptive(q.tp, q.seed)
	}
	nw, err := netsim.New(rt, cfg)
	if err != nil {
		return netsim.Stats{}, err
	}
	if q.mode == "jitter" {
		return nw.RunStagesJitter(q.stages, q.jitter, q.seed)
	}
	mode, err := netsim.ParseMode(q.mode)
	if err != nil {
		return netsim.Stats{}, err
	}
	return nw.Run(q.stages, mode)
}

// checkQuiet holds the bare run of one draw, which skips the events no
// observer needs (docs/SIMULATOR.md), to the run with Metrics attached:
// both runs must complete, and every Stats field, Events included, must
// be equal.
func checkQuiet(t *testing.T, q quietDraw) {
	t.Helper()
	bare, err := q.run(q.cfg)
	if err != nil {
		t.Fatalf("%s: bare run: %v", q.what, err)
	}
	cfg := q.cfg
	cfg.Metrics = obs.NewRegistry()
	observed, err := q.run(cfg)
	if err != nil {
		t.Fatalf("%s: observed run: %v", q.what, err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("%s: the bare run differs from the observed run\nbare:     %+v\nobserved: %+v", q.what, bare, observed)
	}
}

// TestQuietEqualsObserved is the seeded quiet ≡ observed differential
// over the configurations the simulator accepts. Every draw must
// complete, and the draws must reach every mode, both routers and both
// ends of the slot, host rate and fabric size ranges, so the test cannot
// pass on a corner of the space.
func TestQuietEqualsObserved(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 400; seed++ {
		q := drawQuiet(seed)
		checkQuiet(t, q)
		seen[q.mode] = true
		seen[fmt.Sprint("adaptive ", q.adaptive)] = true
		seen[fmt.Sprint("slots ", q.cfg.BufferPackets)] = true
		seen[fmt.Sprint("host ", q.cfg.HostBandwidth/q.cfg.LinkBandwidth)] = true
		seen[fmt.Sprint("hosts > 200 ", q.tp.NumHosts() > 200)] = true
	}
	for _, want := range []string{"async", "barrier", "dependent", "jitter", "adaptive true", "adaptive false",
		"slots 1", "slots 8", "host 0.25", "host 8", "hosts > 200 true", "hosts > 200 false"} {
		if !seen[want] {
			t.Errorf("no draw reached %q", want)
		}
	}
}

// FuzzQuietEqualsObserved runs the differential of TestQuietEqualsObserved
// on fuzzed draw seeds.
func FuzzQuietEqualsObserved(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkQuiet(t, drawQuiet(seed)) })
}

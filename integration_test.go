package fattree_test

// Cross-package integration tests: the full pipeline from a topology
// spec to agreement between the two measurement instruments. These are
// the "two independent implementations must agree" checks DESIGN.md
// promises.

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestInstrumentsAgreeOnContention cross-validates the analytic HSD
// model against the packet simulator: for single permutation stages with
// known contention structure, the synchronized stage time must scale
// with the analytic max HSD.
func TestInstrumentsAgreeOnContention(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	cfg := netsim.DefaultConfig()
	const bytes = 128 << 10

	stageTime := func(o *order.Ordering, seq cps.Sequence) (float64, int) {
		rep, err := hsd.Analyze(lft, o, seq)
		if err != nil {
			t.Fatal(err)
		}
		job, err := mpi.NewJob(lft, o)
		if err != nil {
			t.Fatal(err)
		}
		st, err := job.Simulate(seq, bytes, true, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Duration), rep.MaxHSD()
	}

	// Contention-free reference: one shift stage under topology order.
	seq, err := mpi.SampleStages(cps.Shift(n), []int{4})
	if err != nil {
		t.Fatal(err)
	}
	cleanT, cleanHSD := stageTime(order.Topology(n, nil), seq)
	if cleanHSD != 1 {
		t.Fatalf("reference stage HSD = %d, want 1", cleanHSD)
	}

	// Contended stages under random orders: measured slowdown must
	// track the analytic HSD within modeling slack.
	for seed := int64(0); seed < 4; seed++ {
		badT, badHSD := stageTime(order.Random(n, nil, seed), seq)
		if badHSD < 2 {
			continue // this seed happened to be clean
		}
		slow := badT / cleanT
		lo := float64(badHSD) * 0.6
		hi := float64(badHSD) * 1.5
		if slow < lo || slow > hi {
			t.Errorf("seed %d: analytic HSD %d but measured slowdown %.2f (expected within [%.1f, %.1f])",
				seed, badHSD, slow, lo, hi)
		}
	}
}

// TestPipelineFromSpecString walks the user journey: parse a spec, build
// the fabric, program routing, assign ranks, verify the guarantee, and
// measure it.
func TestPipelineFromSpecString(t *testing.T) {
	g, err := topo.ParseSpec("rlft2:8,8")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	job, err := mpi.NewContentionFreeJob(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := job.Size()
	// A large-message alltoall is a pairwise exchange: the Shift CPS.
	seq, err := mpi.NewSequence(mpi.CPSShift, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Analyze(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContentionFree() {
		t.Fatalf("alltoall (pairwise exchange) HSD = %d on %v", rep.MaxHSD(), g)
	}
	cfg := netsim.DefaultConfig()
	st, err := job.Simulate(seq, 64<<10, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nb := job.NormalizedBandwidth(st, cfg); nb < 0.9 {
		t.Errorf("normalized bandwidth %.3f, want ~1", nb)
	}
	if st.OutOfOrderPackets != 0 {
		t.Errorf("%d packets out of order", st.OutOfOrderPackets)
	}
}

// TestAnalyticAdversarialPredictsSimulatedCollapse pins the 7.1% story
// quantitatively: 1/maxHSD must predict the simulated normalized
// bandwidth of the adversarial ring within modeling slack.
func TestAnalyticAdversarialPredictsSimulatedCollapse(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	adv, err := order.Adversarial(tp)
	if err != nil {
		t.Fatal(err)
	}
	ring := cps.Ring(n)
	rep, err := hsd.Analyze(lft, adv, ring)
	if err != nil {
		t.Fatal(err)
	}
	job, err := mpi.NewJob(lft, adv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.DefaultConfig()
	st, err := job.Simulate(ring, 64<<10, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	measured := job.NormalizedBandwidth(st, cfg)
	// Prediction: the hot link (wire rate) shared by maxHSD flows, per
	// host, normalized by the PCIe cap.
	predicted := cfg.LinkBandwidth / float64(rep.MaxHSD()) / cfg.HostBandwidth
	if measured < predicted*0.7 || measured > predicted*1.3 {
		t.Errorf("measured %.4f vs predicted %.4f (HSD %d) — instruments disagree",
			measured, predicted, rep.MaxHSD())
	}
}

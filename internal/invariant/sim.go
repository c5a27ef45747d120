package invariant

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/obs"
)

// simStageSamples bounds how many Shift stages the packet simulator
// replays for the cross-check; the analytic HSD verdict already covers
// every stage, so the simulation only needs representative coverage.
const simStageSamples = 4

// simMessageMTUs sizes the per-flow payload (in MTUs) so each stage
// pipelines several packets per flow through the fabric.
const simMessageMTUs = 6

// checkSimZeroStalls cross-validates the packet simulator against the
// analytic model: when HSD analysis declares the Shift sequence
// contention free, replaying its stages through netsim must record zero
// credit stalls (netsim_host_credit_stalls_total and
// netsim_switch_credit_stalls_total) — credit exhaustion is exactly how
// link contention manifests in virtual cut-through switching. A failure
// means the two models of the same fabric disagree.
func checkSimZeroStalls(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	g := in.Topo.Spec
	if broken := unmetRestrictions(g); broken != "" {
		return skipf("contention freedom requires constant CBB and single host uplink; %v breaks %s", g, broken)
	}
	if in.hasFaults() {
		return skipf("the zero-stall cross-check claims nothing on degraded fabrics")
	}
	seq := cps.Shift(in.Ordering.Size())
	rep, err := hsd.Analyze(in.Router, in.Ordering, seq)
	if err != nil {
		return failf(nil, "HSD analysis failed: %v", err)
	}
	if !rep.ContentionFree() {
		return skipf("HSD model reports contention (max HSD %d); the zero-stall claim covers contention-free traffic only", rep.MaxHSD())
	}
	job, err := mpi.NewJob(in.Router, in.Ordering)
	if err != nil {
		return failf(nil, "building MPI job failed: %v", err)
	}
	sampled, err := mpi.SampleStages(seq, spreadStages(seq.NumStages(), simStageSamples))
	if err != nil {
		return failf(nil, "sampling stages failed: %v", err)
	}
	reg := obs.NewRegistry()
	cfg := netsim.DefaultConfig()
	cfg.Metrics = reg
	bytes := int64(simMessageMTUs * cfg.MTU)
	st, err := job.SimulateMode(sampled, bytes, netsim.Barrier, cfg)
	if err != nil {
		return failf(nil, "simulation failed: %v", err)
	}
	hostStalls := reg.Counter("netsim_host_credit_stalls_total").Value()
	switchStalls := reg.Counter("netsim_switch_credit_stalls_total").Value()
	if hostStalls+switchStalls != 0 {
		return failf(&Counterexample{
			Sequence: seq.Name(),
			Detail: fmt.Sprintf("%d host and %d switch credit stalls over %d simulated stages (%d messages delivered)",
				hostStalls, switchStalls, sampled.NumStages(), st.MessagesDelivered),
		}, "HSD says contention free, but the packet simulator stalled on credits %d times",
			hostStalls+switchStalls)
	}
	return pass()
}

// spreadStages picks up to k stage indices spread evenly across [0, n),
// always including the first and last stage.
func spreadStages(n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx = append(idx, i*(n-1)/(k-1))
	}
	return idx
}

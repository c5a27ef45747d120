package invariant

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/report"
)

// checkCPSPermutation verifies the Section III structural property of
// every sequence in the instance's family: each stage is a (partial)
// permutation — ranks in range, no self flows, no rank sending or
// receiving twice.
func checkCPSPermutation(in *Instance) Result {
	for _, seq := range in.Sequences {
		if err := cps.Validate(seq); err != nil {
			return failf(&Counterexample{Sequence: seq.Name(), Detail: err.Error()},
				"sequence %q has a non-permutation stage", seq.Name())
		}
	}
	return pass()
}

// maxBlameFlows caps the flows attached to a contention counterexample;
// the full set is always in the blame report, the verdict only needs
// enough to identify the collision.
const maxBlameFlows = 8

// checkContentionFree verifies the headline result: under the instance's
// routing and ordering, every stage of the Shift CPS — the canonical
// superset of all unidirectional collectives (Section III) — has
// HSD = 1. The guarantee needs constant CBB, single host uplink and an
// intact fabric; the check skips otherwise. On failure the counterexample
// names the first hot stage, its worst link, and the colliding flows via
// the blame pipeline, run on that stage alone.
func checkContentionFree(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	g := in.Topo.Spec
	if broken := unmetRestrictions(g); broken != "" {
		return skipf("contention freedom requires constant CBB and single host uplink; %v breaks %s", g, broken)
	}
	if in.hasFaults() {
		return skipf("contention freedom claims nothing on degraded fabrics")
	}
	seq := cps.Shift(in.Ordering.Size())
	rep, err := hsd.Analyze(in.Router, in.Ordering, seq)
	if err != nil {
		return failf(nil, "HSD analysis failed: %v", err)
	}
	if rep.ContentionFree() {
		return pass()
	}
	hot := 0
	for rep.Stages[hot].MaxHSD <= 1 {
		hot++
	}
	one, err := mpi.SampleStages(seq, []int{hot})
	var blame *report.BlameReport
	if err == nil {
		blame, err = report.BuildBlame(in.Router, in.Ordering, one)
	}
	if err != nil {
		return failf(nil, "max HSD %d > 1, and blame attribution failed: %v", rep.MaxHSD(), err)
	}
	if hls := blame.Stages[0].HotLinks; len(hls) > 0 {
		hl := hls[0]
		cx := &Counterexample{
			Sequence: seq.Name(),
			Stage:    intp(hot),
			Link:     intp(hl.Link),
			Load:     hl.Load,
			Detail:   fmt.Sprintf("%s %s -> %s", hl.Dir, hl.From, hl.To),
		}
		for _, f := range hl.Flows {
			if len(cx.Flows) == maxBlameFlows {
				break
			}
			cx.Flows = append(cx.Flows, [2]int{f.Src, f.Dst})
		}
		return failf(cx, "stage %d of %s drives %d flows over link %d (max HSD %d)",
			hot, seq.Name(), hl.Load, hl.Link, rep.MaxHSD())
	}
	return failf(nil, "max HSD %d > 1 but no hot link attributed (analyzer/blame disagree)", rep.MaxHSD())
}

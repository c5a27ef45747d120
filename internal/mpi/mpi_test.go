package mpi

import (
	"reflect"
	"strings"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func testJob(t *testing.T) *Job {
	t.Helper()
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	j, err := NewContentionFreeJob(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewJobValidation(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	if _, err := NewJob(lft, order.Topology(64, nil)); err == nil {
		t.Error("host-count mismatch accepted")
	}
	if _, err := NewJob(lft, order.Topology(128, nil)); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestContentionFreeJobPartial(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	active := []int{0, 1, 2, 3, 64, 65, 66, 67}
	j, err := NewContentionFreeJob(tp, active)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 8 {
		t.Fatalf("size = %d, want 8", j.Size())
	}
	rep, err := j.Analyze(cps.Shift(8))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContentionFree() {
		t.Errorf("partial shift HSD = %d, want 1", rep.MaxHSD())
	}
}

func TestStageMessagesTranslation(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	o := order.Random(128, nil, 9)
	j, err := NewJob(lft, o)
	if err != nil {
		t.Fatal(err)
	}
	seq := cps.Ring(128)
	msgs := j.StageMessages(seq, 0, 4096)
	if len(msgs) != 128 {
		t.Fatalf("messages = %d, want 128", len(msgs))
	}
	for i, m := range msgs {
		if m.Bytes != 4096 {
			t.Fatalf("message %d bytes = %d", i, m.Bytes)
		}
		// Ring: rank r -> r+1 under the ordering.
		r := o.RankOf(m.Src)
		if o.HostOf[(r+1)%128] != m.Dst {
			t.Fatalf("message %d: %d->%d does not match ring under ordering", i, m.Src, m.Dst)
		}
	}
}

func TestSimulateContentionFreeFullBandwidth(t *testing.T) {
	j := testJob(t)
	cfg := netsim.DefaultConfig()
	st, err := j.Simulate(cps.Ring(16), 1<<20, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nb := j.NormalizedBandwidth(st, cfg); nb < 0.9 {
		t.Errorf("normalized bandwidth = %.3f, want near 1 for contention-free ring", nb)
	}
}

func TestSimulateSyncMode(t *testing.T) {
	j := testJob(t)
	cfg := netsim.DefaultConfig()
	seq := cps.Dissemination(16)
	st, err := j.Simulate(seq, 8192, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StageDurations) != seq.NumStages() {
		t.Errorf("stage durations = %d, want %d", len(st.StageDurations), seq.NumStages())
	}
}

func TestSampleStages(t *testing.T) {
	seq := cps.Shift(64)
	s, err := SampleStages(seq, []int{0, 10, 62})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStages() != 3 {
		t.Fatalf("stages = %d, want 3", s.NumStages())
	}
	if s.Size() != 64 || s.Bidirectional() {
		t.Error("wrapper metadata wrong")
	}
	// Stage 1 of the sample is stage 10 of the shift.
	if got, want := s.Stage(1), seq.Stage(10); !reflect.DeepEqual(got, want) {
		t.Errorf("sampled stage 1 = %v, want shift stage 10 %v", got, want)
	}
	if _, err := SampleStages(seq, []int{63}); err == nil {
		t.Error("out-of-range stage accepted")
	}
}

func TestNewSequenceErrors(t *testing.T) {
	if _, err := NewSequence(CPSTopoAware, 16); err == nil {
		t.Error("topo-aware without shape accepted")
	}
	if _, err := NewSequence("bogus", 16); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestNewTopoAwareSequence(t *testing.T) {
	seq, err := NewTopoAwareSequence([]int{4, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Size() != 16 {
		t.Errorf("size = %d, want 16", seq.Size())
	}
	part, err := NewTopoAwareSequence([]int{4, 4}, []int{0, 1, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if part.Size() != 4 {
		t.Errorf("partial size = %d, want 4", part.Size())
	}
}

// TestSampleEvenly: k evenly spaced stages starting at 0; non-positive
// or too-large k keeps the sequence whole.
func TestSampleEvenly(t *testing.T) {
	seq := cps.Shift(64) // 63 stages
	s, err := SampleEvenly(seq, 4)
	if err != nil || s.NumStages() != 4 {
		t.Fatalf("SampleEvenly(4) = %v, %v", s, err)
	}
	for i := 0; i < 4; i++ { // sampled stage i is stage i*15
		if got, want := s.Stage(i), seq.Stage(i*15); !reflect.DeepEqual(got, want) {
			t.Errorf("sampled stage %d = %v, want shift stage %d %v", i, got, i*15, want)
		}
	}
	for _, k := range []int{-1, 0, 63, 1000} {
		if s, err := SampleEvenly(seq, k); err != nil || s != cps.Sequence(seq) {
			t.Errorf("SampleEvenly(%d) did not keep the whole sequence: %v, %v", k, s, err)
		}
	}
}

// TestSequenceByName: kind names and the topo-aware shorthand, full and
// partial jobs, sampling, unknown names.
func TestSequenceByName(t *testing.T) {
	g := topo.MustPGFT(2, []int{4, 4}, []int{1, 4}, []int{1, 1})
	active := []int{0, 1, 4, 5}
	for _, tc := range []struct {
		name     string
		active   []int
		sample   int
		wantName string
		wantSize int
	}{
		{"shift", nil, 0, "shift", 16},
		{"recursive-doubling", active, 0, "recursive-doubling", 4},
		{"topo-aware", nil, 0, "topo-aware-recursive-doubling", 16},
		{string(CPSTopoAware), active, 0, "topo-aware-recursive-doubling", 4},
		{"shift", nil, 3, "shift-sampled", 16},
	} {
		seq, err := SequenceByName(tc.name, g, tc.active, tc.sample)
		if err != nil {
			t.Errorf("%+v: %v", tc, err)
			continue
		}
		if !strings.HasPrefix(seq.Name(), tc.wantName) || seq.Size() != tc.wantSize {
			t.Errorf("%+v: got %s over %d ranks", tc, seq.Name(), seq.Size())
		}
		if tc.sample > 0 && seq.NumStages() != tc.sample {
			t.Errorf("%+v: %d stages", tc, seq.NumStages())
		}
	}
	if _, err := SequenceByName("nope", g, nil, 0); err == nil {
		t.Error("unknown CPS name accepted")
	}
}

// BenchmarkNetsimDependentRecDbl measures the dependency-gated simulator
// on a full recursive-doubling schedule.
func BenchmarkNetsimDependentRecDbl(b *testing.B) {
	t := topo.MustBuild(topo.Cluster128)
	job, err := NewContentionFreeJob(t, nil)
	if err != nil {
		b.Fatal(err)
	}
	seq := cps.RecursiveDoubling(t.NumHosts())
	cfg := netsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.SimulateMode(seq, 32<<10, Dependent, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestContendedShiftPinned pins the packet simulation of Figure 2's
// contended point exactly: the 324-host Shift, sampled to 8 stages,
// under a random node ordering (seed 1) at 512 KiB per message — what
// `ftsim -topo 324 -cps shift -sample 8 -order random -bytes 524288`
// prints as makespan 3.156 ms, 5,844,992 events, normalized 0.409.
// Credits run out on this traffic, so any change to the event loop's
// ordering of credit returns shows here first.
func TestContendedShiftPinned(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	o, err := order.ByName("random", tp, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SequenceByName("shift", tp.Spec, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(route.DModK(tp), o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.SimulateMode(seq, 512<<10, Async, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration != 3156425152 || st.Events != 5844992 || st.BytesDelivered != 1358954496 {
		t.Errorf("makespan %d ps, %d events, %d bytes; want 3156425152 ps, 5844992 events, 1358954496 bytes",
			st.Duration, st.Events, st.BytesDelivered)
	}
	if st.MessagesDelivered != 2592 || st.LatencySum != 733964994648 {
		t.Errorf("%d messages, latency sum %d ps; want 2592 messages, 733964994648 ps",
			st.MessagesDelivered, st.LatencySum)
	}
}

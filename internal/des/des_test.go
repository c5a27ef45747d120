package des

import (
	"testing"
	"testing/quick"
)

func TestEventOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if !s.Run(0) {
		t.Fatal("run hit bound")
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("final time = %d, want 30", s.Now())
	}
	if s.Executed() != 3 {
		t.Errorf("executed = %d, want 3", s.Executed())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties ran out of order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var trace []Time
	s.At(10, func() {
		trace = append(trace, s.Now())
		s.After(5, func() { trace = append(trace, s.Now()) })
	})
	s.Run(0)
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run(0)
}

func TestRunBound(t *testing.T) {
	s := NewScheduler()
	var bomb func()
	n := 0
	bomb = func() {
		n++
		s.After(1, bomb)
	}
	s.At(0, bomb)
	if s.Run(100) {
		t.Error("unbounded chain reported clean completion")
	}
	if n == 0 || n > 100 {
		t.Errorf("ran %d events under bound 100", n)
	}
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestDaemonEvents(t *testing.T) {
	// A self-re-arming daemon interleaves with work but never outlives
	// it: the tick queued past the last work event is discarded and the
	// clock stays at the final work event.
	s := NewScheduler()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		s.AfterDaemon(2, tick)
	}
	s.AtDaemon(0, tick)
	worked := 0
	for _, at := range []Time{1, 3, 5} {
		s.At(at, func() { worked++ })
	}
	if s.Pending() != 3 {
		t.Errorf("pending = %d, want 3 (daemon events excluded)", s.Pending())
	}
	if !s.Run(0) {
		t.Fatal("run hit bound")
	}
	if worked != 3 {
		t.Errorf("ran %d work events, want 3", worked)
	}
	// Daemon ticks at 0, 2, 4; the tick armed for 6 is dropped.
	if len(ticks) != 3 || ticks[0] != 0 || ticks[1] != 2 || ticks[2] != 4 {
		t.Errorf("daemon ticks = %v, want [0 2 4]", ticks)
	}
	if s.Now() != 5 {
		t.Errorf("final time = %d, want 5 (daemon must not advance the clock)", s.Now())
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after run", s.Pending())
	}
	// A daemon scheduled on a drained scheduler never runs.
	s.AtDaemon(10, func() { t.Error("daemon ran with no work queued") })
	s.Run(0)
	if s.Now() != 5 {
		t.Errorf("time advanced to %d by a work-less daemon", s.Now())
	}
}

func TestDaemonTieWithLastWorkEvent(t *testing.T) {
	// A daemon scheduled earlier than a work event at the same time
	// still runs (FIFO tie-break); scheduled later, it is dropped.
	s := NewScheduler()
	ran := false
	s.AtDaemon(5, func() { ran = true })
	s.At(5, func() {})
	s.Run(0)
	if !ran {
		t.Error("earlier-scheduled daemon at tied time did not run")
	}

	s2 := NewScheduler()
	s2.At(5, func() {})
	s2.AtDaemon(5, func() { t.Error("later-scheduled daemon ran after final work event") })
	s2.Run(0)
}

func TestMaxPendingExcludesDaemons(t *testing.T) {
	s := NewScheduler()
	s.At(1, func() {})
	s.At(2, func() {})
	s.AtDaemon(1, func() {})
	s.AtDaemon(2, func() {})
	if s.MaxPending() != 2 {
		t.Errorf("max pending = %d, want 2", s.MaxPending())
	}
	s.Run(0)
	if s.MaxPending() != 2 {
		t.Errorf("max pending after run = %d, want 2", s.MaxPending())
	}
}

func TestMonotonicClockQuick(t *testing.T) {
	// Property: for any batch of event times, execution times are
	// non-decreasing.
	f := func(times []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, at := range times {
			at := Time(at)
			s.At(at, func() { seen = append(seen, s.Now()) })
		}
		s.Run(0)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Errorf("Second = %d ps", Second)
	}
	if Microsecond != 1000*Nanosecond {
		t.Errorf("Microsecond = %d", Microsecond)
	}
}

func TestCalendarPressureTelemetry(t *testing.T) {
	s := NewScheduler()
	// Two near events land in distinct wheel slots; one far event lands
	// past the horizon, on the overflow list, and forces a rebase when
	// the wheel drains.
	horizon := slotWidth * numSlots
	ran := 0
	s.At(1, func() { ran++ })
	s.At(slotWidth+1, func() { ran++ })
	s.At(2*horizon, func() { ran++ })
	if got := s.OccupiedSlotsHighWater(); got < 2 {
		t.Errorf("occupied-slots high water %d, want >= 2", got)
	}
	if got := s.OverflowHighWater(); got != 1 {
		t.Errorf("overflow high water %d, want 1", got)
	}
	if got := s.Rebases(); got != 0 {
		t.Errorf("rebases before running: %d, want 0", got)
	}
	if !s.Run(0) {
		t.Fatal("run did not drain")
	}
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
	if got := s.Rebases(); got < 1 {
		t.Errorf("rebases after draining past the horizon: %d, want >= 1", got)
	}

	// Reset clears the telemetry with the rest of the scheduler state.
	s.Reset()
	if s.Rebases() != 0 || s.OverflowHighWater() != 0 || s.OccupiedSlotsHighWater() != 0 {
		t.Errorf("Reset kept telemetry: rebases %d overflow %d slots %d",
			s.Rebases(), s.OverflowHighWater(), s.OccupiedSlotsHighWater())
	}
}

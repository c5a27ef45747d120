package des

import (
	"testing"
	"testing/quick"
)

// schedAt pushes a regular closure event at t. The kernel exports
// closures as daemons only; a regular one lets these tests schedule
// work with side effects and drain it with NextEvent.
func schedAt(s *Scheduler, t Time, fn func()) {
	s.push(event{at: t, key: keyClosure, a: s.regFn(fn)})
}

func TestEventOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	schedAt(s, 30, func() { got = append(got, 3) })
	schedAt(s, 10, func() { got = append(got, 1) })
	schedAt(s, 20, func() { got = append(got, 2) })
	drain(s, nil)
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
		schedAt(s, 5, func() { got = append(got, i) })
	}
	drain(s, nil)
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties ran out of order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var trace []Time
	schedAt(s, 10, func() {
		trace = append(trace, s.Now())
		schedAt(s, s.Now()+5, func() { trace = append(trace, s.Now()) })
	})
	drain(s, nil)
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	schedAt(s, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		schedAt(s, 5, func() {})
	})
	drain(s, nil)
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler()
	s.AtEvent(1, 0, 0, 0, 0)
	s.AtEvent(2, 0, 0, 0, 0)
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	if _, _, _, _, ok := s.NextEvent(); !ok {
		t.Fatal("NextEvent found no event")
	}
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
		schedAt(s, at, func() { worked++ })
	}
	if s.Pending() != 3 {
		t.Errorf("pending = %d, want 3 (daemon events excluded)", s.Pending())
	}
	drain(s, nil)
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
	drain(s, nil)
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
	schedAt(s, 5, func() {})
	drain(s, nil)
	if !ran {
		t.Error("earlier-scheduled daemon at tied time did not run")
	}

	s2 := NewScheduler()
	schedAt(s2, 5, func() {})
	s2.AtDaemon(5, func() { t.Error("later-scheduled daemon ran after final work event") })
	drain(s2, nil)
}

func TestMaxPendingExcludesDaemons(t *testing.T) {
	s := NewScheduler()
	schedAt(s, 1, func() {})
	schedAt(s, 2, func() {})
	s.AtDaemon(1, func() {})
	s.AtDaemon(2, func() {})
	if s.MaxPending() != 2 {
		t.Errorf("max pending = %d, want 2", s.MaxPending())
	}
	drain(s, nil)
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
			schedAt(s, at, func() { seen = append(seen, s.Now()) })
		}
		drain(s, nil)
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
	schedAt(s, 1, func() { ran++ })
	schedAt(s, slotWidth+1, func() { ran++ })
	schedAt(s, 2*horizon, func() { ran++ })
	if got := s.OccupiedSlotsHighWater(); got < 2 {
		t.Errorf("occupied-slots high water %d, want >= 2", got)
	}
	if got := s.OverflowHighWater(); got != 1 {
		t.Errorf("overflow high water %d, want 1", got)
	}
	if got := s.Rebases(); got != 0 {
		t.Errorf("rebases before running: %d, want 0", got)
	}
	drain(s, nil)
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

package des

import (
	"math/rand"
	"sort"
	"testing"
)

// The calendar-queue specifics: dispatch events, the NextEvent drain,
// lazy slot sorting, overflow redistribution, and scheduler reuse.

// drain pops every event with NextEvent and hands each dispatch event
// to h, which may schedule more — the simulator's event loop. A nil h
// drains a queue of closure events.
func drain(s *Scheduler, h func(kind uint16, a, b int32, c int64)) {
	for {
		kind, a, b, c, ok := s.NextEvent()
		if !ok {
			return
		}
		h(kind, a, b, c)
	}
}

func TestDispatchEventPayload(t *testing.T) {
	s := NewScheduler()
	type rec struct {
		kind uint16
		a, b int32
		c    int64
	}
	var got []rec
	h := func(kind uint16, a, b int32, c int64) {
		got = append(got, rec{kind, a, b, c})
	}
	s.AtEvent(20, 7, 1, 2, 3)
	s.AtEvent(10, 9, -4, 5, -1<<40)
	drain(s, h)
	want := []rec{{9, -4, 5, -1 << 40}, {7, 1, 2, 3}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("payloads = %+v, want %+v", got, want)
	}
}

func TestNextEventDrain(t *testing.T) {
	// NextEvent must pop dispatch events in time order, returning their
	// payloads, while running closure events itself.
	s := NewScheduler()
	var closures []Time
	schedAt(s, 15, func() { closures = append(closures, 15) })
	s.AtEvent(10, 1, 10, 0, 0)
	s.AtEvent(20, 1, 20, 0, 0)
	schedAt(s, 25, func() { closures = append(closures, 25) })
	var dispatched []int32
	for {
		kind, a, _, _, ok := s.NextEvent()
		if !ok {
			break
		}
		if kind != 1 {
			t.Fatalf("kind = %d, want 1", kind)
		}
		dispatched = append(dispatched, a)
	}
	if len(dispatched) != 2 || dispatched[0] != 10 || dispatched[1] != 20 {
		t.Fatalf("dispatch order = %v, want [10 20]", dispatched)
	}
	if len(closures) != 2 || closures[0] != 15 || closures[1] != 25 {
		t.Fatalf("closure order = %v, want [15 25]", closures)
	}
	if s.Pending() != 0 || s.Executed() != 4 {
		t.Fatalf("pending = %d executed = %d, want 0 and 4", s.Pending(), s.Executed())
	}
}

func TestOverflowRebase(t *testing.T) {
	// Events past the wheel horizon wait in overflow and must still pop
	// in global time order once the wheel rebases onto them.
	s := NewScheduler()
	horizon := Time(numSlots) * slotWidth
	var got []Time
	h := func(kind uint16, a, b int32, c int64) {
		got = append(got, s.Now())
	}
	times := []Time{1, horizon + 5, 3 * horizon, horizon + 2, 2, 5 * horizon}
	for _, at := range times {
		s.AtEvent(at, 0, 0, 0, 0)
	}
	drain(s, h)
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestInsertIntoDrainingSlot(t *testing.T) {
	// A handler scheduling into the slot the cursor is consuming must
	// still run in timestamp order (the lazy sort covers the unpopped
	// suffix only).
	s := NewScheduler()
	var got []Time
	h := func(kind uint16, a, b int32, c int64) {
		got = append(got, s.Now())
		if a == 1 {
			// Same slot as the events below, already partly drained.
			s.AtEvent(s.Now()+2, 0, 0, 0, 0)
			s.AtEvent(s.Now()+1, 0, 0, 0, 0)
		}
	}
	s.AtEvent(0, 0, 1, 0, 0)
	s.AtEvent(4, 0, 0, 0, 0)
	drain(s, h)
	want := []Time{0, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestOutOfOrderSlotAppends(t *testing.T) {
	// Descending-time pushes land in one slot out of order, forcing the
	// dirty sort; FIFO ties must survive it.
	s := NewScheduler()
	var got []int32
	h := func(kind uint16, a, b int32, c int64) {
		got = append(got, a)
	}
	s.AtEvent(3, 0, 30, 0, 0)
	s.AtEvent(1, 0, 10, 0, 0)
	s.AtEvent(2, 0, 20, 0, 0)
	s.AtEvent(1, 0, 11, 0, 0) // tie with the second push
	drain(s, h)
	want := []int32{10, 11, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerReset(t *testing.T) {
	s := NewScheduler()
	ran := 0
	h := func(kind uint16, a, b int32, c int64) { ran++ }
	s.AtEvent(10, 0, 0, 0, 0)
	schedAt(s, 20, func() { ran++ })
	s.AtEvent(5*Time(numSlots)*slotWidth, 0, 0, 0, 0) // parked in overflow
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 {
		t.Fatalf("after Reset: pending = %d now = %d", s.Pending(), s.Now())
	}
	// The dropped events must never fire; fresh ones must.
	s.AtEvent(7, 0, 0, 0, 0)
	drain(s, h)
	if ran != 1 {
		t.Errorf("ran %d events after reset, want 1", ran)
	}
	if s.Now() != 7 {
		t.Errorf("now = %d, want 7", s.Now())
	}
}

func TestClosureRegistryRecycled(t *testing.T) {
	// Closure slots are freed as closures run, so steady-state closure
	// traffic must not grow the registry.
	s := NewScheduler()
	for round := 0; round < 100; round++ {
		schedAt(s, s.Now()+1, func() {})
		drain(s, nil)
	}
	if len(s.fns) > 1 {
		t.Errorf("closure registry grew to %d entries, want <= 1", len(s.fns))
	}
}

func TestRandomizedPopOrder(t *testing.T) {
	// Torture the wheel: random timestamps spanning slots, laps and the
	// overflow path, plus handler-scheduled followups, must pop in
	// exact (time, push order) sequence.
	rng := rand.New(rand.NewSource(42))
	s := NewScheduler()
	type ev struct {
		at  Time
		seq int32
	}
	var want []ev
	var got []ev
	var seq int32
	push := func(at Time) {
		s.AtEvent(at, 0, seq, 0, 0)
		want = append(want, ev{at, seq})
		seq++
	}
	h := func(kind uint16, a, b int32, c int64) {
		got = append(got, ev{s.Now(), a})
		if a%7 == 0 {
			push(s.Now() + Time(rng.Int63n(3*int64(numSlots)*int64(slotWidth))))
		}
	}
	for i := 0; i < 2000; i++ {
		push(Time(rng.Int63n(2 * int64(numSlots) * int64(slotWidth))))
	}
	drain(s, h)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

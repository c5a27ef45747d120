// Package des is a minimal discrete-event simulation kernel: a time-ordered
// event queue with deterministic FIFO tie-breaking. It underpins the
// packet-level network simulator the paper builds in OMNeT++ (Section II).
//
// The kernel offers two event forms. Dispatch events (AtEvent) are the
// simulation's work: a plain-old-data payload — a kind tag plus three
// integer operands — stored inline in the queue and returned by
// NextEvent, so the hot path of a large simulation schedules millions
// of events without a single allocation. Closure events are daemons
// only (AtDaemon/AfterDaemon): they allocate, which suits coarse
// instrumentation like probe ticks, and NextEvent runs them inside the
// call. Both forms share one queue and one deterministic ordering.
//
// The queue is a calendar queue (timing wheel): events within the wheel's
// horizon land in fixed-width time slots, each a small append-only array
// with a consumed-prefix cursor that is sorted lazily — by stable
// insertion sort on time alone — the first time the clock reaches the
// slot; events beyond the horizon wait in an overflow list that is
// redistributed when the wheel drains to it. Simulators schedule almost
// exclusively a few link-latencies ahead, so a push is a bounds check
// and an append, and a pop is a copy off the sorted prefix — instead of
// sifting through one deep global heap, which is otherwise most of the
// simulator's runtime. Slots are not small under load: a 324-host
// Figure 2 reproduction puts 10–31 events in each occupied slot, and
// 5–38 % of its inserts land out of order (more for longer messages),
// so the lazy sort does real work there. Appends
// keep equal-time events in scheduling order, so the stable time-only
// sort yields exact (time, scheduling order) pop order, bit-identical to
// a single ordered queue, with no sequence number stored.
package des

import "math/bits"

// Time is simulation time in picoseconds. The int64 range covers ~106
// days of simulated time, far beyond any experiment here.
type Time int64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Calendar geometry: 2^13 ps ≈ 8.2 ns slots, 4096 slots ≈ 33.6 µs
// horizon. Default link/switch latencies are 100 ns and MTU wire times
// ~0.5 µs, so in practice every event lands inside the wheel. A slot is
// narrow in time but not in events: a 324-host stage fills an occupied
// slot with 10–31 of them, and the sort on first pop makes 0.7–1.9 moves
// per insert. Events past the horizon (probe ticks, jitter timers) take
// the overflow path.
const (
	slotShift = 13
	slotWidth = Time(1) << slotShift
	numSlots  = 4096
)

// event is one 32-byte queue entry. key packs the dispatch kind and the
// daemon and closure flags; for a
// closure event a indexes the scheduler's fns registry (keeping the
// function pointer out of the hot array). Events are stored by value in
// the slot arrays, so scheduling never allocates for dispatch events.
type event struct {
	at   Time
	key  uint64
	c    int64
	a, b int32
}

// key layout: [63:48] kind, [47] daemon, [46] closure.
const (
	keyKindShift        = 48
	keyDaemon    uint64 = 1 << 47
	keyClosure   uint64 = 1 << 46
)

// Scheduler runs events in time order; ties run in scheduling order.
// Daemon events (AtDaemon/AfterDaemon) run only while regular work
// remains queued: once the last regular event has executed, leftover
// daemon events are discarded without advancing the clock, so periodic
// instrumentation never extends a simulation or keeps it alive.
type Scheduler struct {
	now        Time
	ran        uint64
	work       int // queued non-daemon events
	pending    int // queued events of either kind
	maxPending int // high-water mark of work

	base     Time // wheel window start, multiple of slotWidth
	cursor   int  // slots before cursor are empty
	occ      [numSlots / 64]uint64
	slots    [numSlots]slot
	overflow []event // events at base+horizon or later, unordered

	// Calendar pressure telemetry, reset with Reset: how many times the
	// wheel re-anchored at the overflow list, the overflow list's
	// high-water length, and the peak count of simultaneously occupied
	// wheel slots. All maintained on already-rare paths (first insert
	// into an empty slot, overflow push, rebase), so the hot path pays
	// nothing for them.
	rebases      uint64
	overflowPeak int
	occSlots     int
	occSlotsPeak int

	// bufs recycles slot backing arrays: a slot hands its array back the
	// moment it drains and grabs one on its next first insert. Without
	// this, every slot index a burst ever lands on would retain a
	// burst-sized array, and memory would scale with simulated time
	// instead of with peak concurrent events.
	bufs [][]event

	// fns is the closure registry: events stay plain data, and a closure
	// event's a operand indexes here. Slots are recycled through fnFree
	// as their events fire.
	fns    []func()
	fnFree []int32
}

// slot holds one wheel slot's events; ev[:head] is the already-popped
// prefix. Inserts append; an append that breaks ascending time order
// marks the slot dirty, and the unpopped suffix is insertion-sorted by
// time lazily, when the cursor reaches the slot — so the insert
// hot path costs one comparison against maxAt, and the common case of
// in-order appends never sorts at all. ev is nil while the slot is
// empty — its storage lives in the scheduler's buffer pool.
type slot struct {
	ev    []event
	maxAt Time
	head  int32
	dirty bool
}

// sort orders the unpopped suffix ascending by time, ties in push order.
// Appends happen in push order, so a stable insertion sort on at alone
// (strict less) yields that order with one comparison per step. Events
// land mostly in order (62–95 % of inserts on Figure 2's runs), so the
// few dozen entries a slot holds need few moves.
func (sl *slot) sort() {
	sl.dirty = false
	ev := sl.ev
	for i := int(sl.head) + 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for j > int(sl.head) && e.at < ev[j-1].at {
			ev[j] = ev[j-1]
			j--
		}
		ev[j] = e
	}
}

// grab takes a pooled (empty, zeroed) backing array.
func (s *Scheduler) grab() []event {
	if n := len(s.bufs); n > 0 {
		b := s.bufs[n-1]
		s.bufs = s.bufs[:n-1]
		return b
	}
	return make([]event, 0, 8)
}

// release returns a drained slot's array to the pool.
func (s *Scheduler) release(sl *slot) {
	s.occSlots--
	s.bufs = append(s.bufs, sl.ev[:0])
	sl.ev = nil
	sl.maxAt = 0
	sl.head = 0
	sl.dirty = false
}

// slotInsert appends e to slot i, deferring ordering to the lazy sort
// at pop time. Inserting into the slot the cursor is draining is fine:
// e.at >= now, so sorting the unpopped suffix keeps global order.
func (s *Scheduler) slotInsert(i int, e event) {
	sl := &s.slots[i]
	if sl.ev == nil {
		sl.ev = s.grab()
		s.occSlots++
		if s.occSlots > s.occSlotsPeak {
			s.occSlotsPeak = s.occSlots
		}
	}
	sl.ev = append(sl.ev, e)
	if e.at < sl.maxAt {
		sl.dirty = true
	} else {
		sl.maxAt = e.at
	}
	s.occ[i>>6] |= 1 << uint(i&63)
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Reset returns the scheduler to time zero with an empty queue, keeping
// the queue's capacity for reuse across runs.
func (s *Scheduler) Reset() {
	s.clear()
	s.now = 0
	s.ran = 0
	s.maxPending = 0
	s.base = 0
	s.rebases = 0
	s.overflowPeak = 0
	s.occSlotsPeak = 0
}

// clear drops every queued event and empties the closure registry so
// retained closures don't leak.
func (s *Scheduler) clear() {
	if s.pending > 0 {
		for i := range s.slots {
			if s.slots[i].ev != nil {
				s.release(&s.slots[i])
			}
		}
		s.overflow = s.overflow[:0]
		s.occ = [numSlots / 64]uint64{}
	}
	for i := range s.fns {
		s.fns[i] = nil
	}
	s.fns = s.fns[:0]
	s.fnFree = s.fnFree[:0]
	s.cursor = 0
	s.pending = 0
	s.work = 0
	s.occSlots = 0
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// AdvanceTo moves the clock forward to t without running anything;
// moving backwards panics. Used by barrier-stage drivers to align the
// clock across stage boundaries.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic("des: clock moved backwards")
	}
	s.now = t
}

// Pending returns the number of queued regular (non-daemon) events.
func (s *Scheduler) Pending() int { return s.work }

// MaxPending returns the high-water mark of the queue depth — how deep
// the regular event queue ever got. Observability probes sample Pending
// over time; this captures the peak between samples. Daemon events are
// excluded so enabling probes does not alter the reading.
func (s *Scheduler) MaxPending() int { return s.maxPending }

// Executed returns the number of events run so far.
func (s *Scheduler) Executed() uint64 { return s.ran }

// Rebases returns how many times the calendar wheel re-anchored at the
// overflow list since the last Reset. Frequent rebases mean the
// workload schedules far past the wheel horizon and the overflow list
// is doing the queue's work.
func (s *Scheduler) Rebases() uint64 { return s.rebases }

// OverflowHighWater returns the overflow list's peak length since the
// last Reset.
func (s *Scheduler) OverflowHighWater() int { return s.overflowPeak }

// OccupiedSlotsHighWater returns the peak number of simultaneously
// occupied wheel slots since the last Reset — how spread out in time
// the pending event set got.
func (s *Scheduler) OccupiedSlotsHighWater() int { return s.occSlotsPeak }

// regFn parks a closure in the registry and returns its index.
func (s *Scheduler) regFn(fn func()) int32 {
	if n := len(s.fnFree); n > 0 {
		idx := s.fnFree[n-1]
		s.fnFree = s.fnFree[:n-1]
		s.fns[idx] = fn
		return idx
	}
	s.fns = append(s.fns, fn)
	return int32(len(s.fns) - 1)
}

// AtDaemon schedules fn at absolute time t as a daemon event: it runs
// only if regular work is still queued when its turn comes, and is
// otherwise discarded without advancing the clock.
func (s *Scheduler) AtDaemon(t Time, fn func()) {
	s.push(event{at: t, key: keyClosure | keyDaemon, a: s.regFn(fn)})
}

// AfterDaemon schedules a daemon event d after the current time.
func (s *Scheduler) AfterDaemon(d Time, fn func()) { s.AtDaemon(s.now+d, fn) }

// AtEvent schedules a dispatch event at absolute time t. The payload is
// stored inline in the queue — no allocation — and NextEvent returns it
// when the event fires.
func (s *Scheduler) AtEvent(t Time, kind uint16, a, b int32, c int64) {
	s.push(event{at: t, key: uint64(kind) << keyKindShift, a: a, b: b, c: c})
}

// push files an event into its wheel slot or the overflow list. Events
// never land before the cursor: e.at >= now, and the cursor trails the
// slot of the last popped event.
func (s *Scheduler) push(e event) {
	if e.at < s.now {
		panic("des: event scheduled in the past")
	}
	if d := (e.at - s.base) >> slotShift; d < numSlots {
		s.slotInsert(int(d), e)
	} else {
		s.overflow = append(s.overflow, e)
		if len(s.overflow) > s.overflowPeak {
			s.overflowPeak = len(s.overflow)
		}
	}
	s.pending++
	if e.key&keyDaemon == 0 {
		s.work++
		if s.work > s.maxPending {
			s.maxPending = s.work
		}
	}
}

// firstOccupied returns the first non-empty slot at or after from, or
// -1 if the wheel is empty from there on.
func (s *Scheduler) firstOccupied(from int) int {
	w := from >> 6
	b := s.occ[w] &^ (1<<uint(from&63) - 1)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w >= len(s.occ) {
			return -1
		}
		b = s.occ[w]
	}
}

// rebase re-anchors the wheel at the earliest overflow event and
// redistributes what now fits. Caller guarantees the wheel is empty and
// the overflow is not.
func (s *Scheduler) rebase() {
	s.rebases++
	min := s.overflow[0].at
	for i := 1; i < len(s.overflow); i++ {
		if s.overflow[i].at < min {
			min = s.overflow[i].at
		}
	}
	s.base = min &^ (slotWidth - 1)
	s.cursor = 0
	keep := s.overflow[:0]
	for _, e := range s.overflow {
		d := (e.at - s.base) >> slotShift
		if d >= numSlots {
			keep = append(keep, e)
			continue
		}
		s.slotInsert(int(d), e)
	}
	s.overflow = keep
}

// NextEvent pops queued events until it reaches a dispatch event, whose
// payload it returns; closure events execute inside the call. ok ==
// false means no regular events remain (leftover daemon events are
// dropped, clock untouched). A simulator's hot loop switches on the
// returned kind directly.
func (s *Scheduler) NextEvent() (kind uint16, a, b int32, c int64, ok bool) {
	for {
		if s.work == 0 {
			s.clear()
			return 0, 0, 0, 0, false
		}
		i := s.cursor
		if s.occ[i>>6]&(1<<uint(i&63)) == 0 {
			i = s.firstOccupied(i)
			if i < 0 {
				s.rebase()
				i = s.firstOccupied(0)
			}
			s.cursor = i
		}
		sl := &s.slots[i]
		if sl.dirty {
			sl.sort()
		}
		h := sl.head
		e := sl.ev[h]
		sl.head = h + 1
		if int(h+1) == len(sl.ev) {
			s.release(sl)
			s.occ[i>>6] &^= 1 << uint(i&63)
		}
		s.pending--
		if e.key&keyDaemon == 0 {
			s.work--
		}
		s.now = e.at
		s.ran++
		if e.key&keyClosure != 0 {
			fn := s.fns[e.a]
			s.fns[e.a] = nil
			s.fnFree = append(s.fnFree, e.a)
			fn()
			continue
		}
		return uint16(e.key >> keyKindShift), e.a, e.b, e.c, true
	}
}

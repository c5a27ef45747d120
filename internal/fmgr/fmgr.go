// Package fmgr is the fabric-manager daemon core: the long-running
// subnet-manager role the paper's D-Mod-K engine shipped inside
// (OpenSM), rebuilt as a concurrent Go service. A Manager owns an
// immutable FabricState snapshot — topology, rerouted forwarding
// tables, compiled path arena, node ordering, job placements and the
// cached Shift-HSD summary — behind an atomic pointer: readers load the
// pointer and work lock-free on a consistent snapshot (RCU style),
// while a single event loop consumes fault/revive and job events and
// swaps the whole snapshot. The daemon serves eq. (1), route.DModK, and
// repairs it around faults with (*fabric.FaultSet).Repair; a second
// routing policy is a second daemon. A snapshot is two things with two
// costs: the tables a fault set determines (repaired, analysed,
// validated — built once per fault set, debounced) and
// the jobs view assembled over them at every publish. A fault therefore costs a
// fabric-wide rebuild held for the debounce window, a placement one job
// frame published at once. A query served mid-reroute always answers
// from exactly one epoch — the previous valid tables until the new ones
// are proven good, never a mix.
package fmgr

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fattree/internal/cps"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/obs"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/schema"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// FabricState is one immutable snapshot of the managed fabric. Every
// field is frozen at build time; readers must not mutate anything
// reachable from it. Epoch increases by one per swap.
type FabricState struct {
	Epoch uint64
	Topo  *topo.Topology
	// Paths is the lenient-compiled arena over the served routing
	// (broken pairs recorded, not fatal).
	Paths *route.Compiled
	// Engine names the served routing to clients, always "dmodk" (the
	// name the analysis commands give it); Routing is its router label.
	Engine  string
	Routing string
	// Ordering is the topology-aware MPI node order served by /v1/order.
	Ordering *order.Ordering
	// HSD is the cached Shift summary over the routable pairs.
	HSD *hsd.Report
	// FailedLinks, Unroutable and BrokenPairs describe the fault state
	// the tables were computed under.
	FailedLinks []topo.LinkID
	Unroutable  []int
	BrokenPairs int
	// Jobs is a deep copy of the live allocations at swap time.
	Jobs []*sched.Allocation
	// JobRouteSets holds, per placed job, the fully encoded binary
	// answer for the job's whole ordered src→dst pair set under this
	// epoch's tables: the arena's head ++ tail
	// factoring of those pairs (wire.RouteSetFactored), not the pairs.
	// Factored once, at the job's placement and again at every reroute,
	// and carried from snapshot to snapshot in between, so a steady-state
	// job-mode wire query is a map lookup plus one conn write — a pure
	// cache hit, no path walk, no encode.
	JobRouteSets map[sched.JobID]JobWireFrame

	wireOrder []byte // pre-encoded binary OrderResp frame
	// tb is what the fault set determined of this snapshot, shared with
	// every snapshot published until the fault set changes.
	tb *fabricTables
	// assembleUS is what laying the jobs view over the tables took.
	assembleUS int64
}

// fabricTables is the part of a snapshot a fault set determines and a
// job event leaves alone: the repaired forwarding tables and lenient
// arena under it, and the standing Shift-HSD report over that arena. It
// is the expensive part — built once per fault set, proven by
// Manager.validate, immutable from then on.
type fabricTables struct {
	*fabric.Tables
	failedLinks []topo.LinkID
	hsd         *hsd.Report
	// where the build's time went, for the reroute record
	engineTablesUS, shiftHSDUS int64
}

// JobWireFrame is one job's precomputed binary answer, served verbatim
// by job-mode RouteSet requests. Frame is normally a RouteSetFactored;
// when the job's set cannot be shipped as one — it would encode past
// wire.MaxPayload, or outgrows wire.MaxJobHosts or wire.MaxStride, a
// frame every peer rejects — it is instead an ErrorResp directing the
// client to pairs-mode chunks (Pairs 0, Code 500).
type JobWireFrame struct {
	Frame []byte
	Pairs int // resolved pairs, for the served-routes counter
	Code  int // HTTP-style observation code: 200 served, 500 oversized
	// Epoch is the stamp inside Frame: the epoch these routes were
	// computed at — the job's placement or the last reroute since,
	// whichever is later — not the epoch of the snapshot serving them. A
	// client whose hint has reached it holds these very routes.
	Epoch uint64
}

// tables resolves an engine name against this snapshot ("" = the
// daemon's engine) for both serving protocols: the resolved name and the
// compiled arena, whose Label names the routing. !ok means the name is
// not the engine this daemon serves.
func (st *FabricState) tables(name string) (engName string, paths *route.Compiled, ok bool) {
	if name == "" {
		name = st.Engine
	}
	return name, st.Paths, name == st.Engine
}

// pairState is what a snapshot makes of one requested src->dst pair.
type pairState int

const (
	pairServed     pairState = iota // the arena holds its path
	pairSelf                        // src == dst: served, no hops
	pairBroken                      // no usable path under this epoch: JSON 503, binary OK=false
	pairOutOfRange                  // not two hosts of this fabric: refused
)

// pairStatus is the one "serve this pair?" test of both serving
// protocols, asked of an arena over n hosts in the order every handler
// must respect: range, then self, then Broken.
func pairStatus(paths *route.Compiled, n, src, dst int) pairState {
	switch {
	case src < 0 || src >= n || dst < 0 || dst >= n:
		return pairOutOfRange
	case src == dst:
		return pairSelf
	case paths.Broken(src, dst):
		return pairBroken
	}
	return pairServed
}

// servedEngine is the name the daemon's one routing answers to in every
// response and journal record.
const servedEngine = "dmodk"

// Config configures a Manager. Topo is required; everything else has
// serviceable defaults.
type Config struct {
	Topo *topo.Topology
	// Debounce is how long after the last fault event (fail, revive,
	// fail_random) the event loop waits before it publishes a rerouted
	// snapshot, so a burst of link flaps costs one swap (and at most two
	// reroutes, one begun at its first event) instead of one per event.
	// Fault events only: a job event changes no table, opens no window
	// and extends none — on a quiet fabric it is published at once, in an
	// open window it is published with the window's tables. Default 25ms.
	Debounce time.Duration
	// Rand drives the fail_random fault draws. Default: seeded with 1,
	// so a daemon restart replays the same draw sequence.
	Rand *rand.Rand
	// Metrics receives the fmgr_* counters, gauges and histograms. Nil
	// disables instrumentation at nil-handle cost.
	Metrics *obs.Registry
	// Spans receives request and event-loop spans (trace/span IDs over
	// the Chrome trace-event writer). Nil disables tracing at
	// nil-handle cost.
	Spans *obs.SpanTracer
	// SpanSample traces one in every SpanSample requests when Spans is
	// set (1 = every request, the default). The event loop is always
	// traced — it is rare and load-bearing.
	SpanSample int
	// JournalSize bounds the in-memory fabric event journal served at
	// GET /v1/events. Default 1024 records; the ring drops oldest
	// first.
	JournalSize int
	// MaxInflight gates concurrent HTTP requests on /v1 (excess gets
	// 429). Default 64.
	MaxInflight int
	// RequestTimeout bounds /v1 request handling. Default 2s.
	RequestTimeout time.Duration

	// retryBase and retryMax bound the exponential backoff applied when
	// a rebuild fails validation (the previous snapshot keeps serving
	// meanwhile): 50ms and 2s, set otherwise only by this package's
	// tests.
	retryBase, retryMax time.Duration
}

func (c *Config) fill() {
	if c.Debounce <= 0 {
		c.Debounce = 25 * time.Millisecond
	}
	if c.retryBase <= 0 {
		c.retryBase = 50 * time.Millisecond
	}
	if c.retryMax <= 0 {
		c.retryMax = 2 * time.Second
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	if c.SpanSample <= 0 {
		c.SpanSample = 1
	}
	if c.JournalSize <= 0 {
		c.JournalSize = 1024
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
}

type evKind int

const (
	evFail evKind = iota
	evRevive
	evFailRandom
	evAlloc
	evFree
)

type jobReply struct {
	alloc *sched.Allocation
	err   error
}

type event struct {
	kind    evKind
	at      time.Time // when send enqueued it: its debounce window runs from here
	link    topo.LinkID
	n       int
	size    int
	aligned bool
	job     sched.JobID
	reply   chan jobReply // non-nil for job events only
}

// Manager owns the fabric state and the event loop. Create with New,
// then Start; readers call Current or go through Handler.
type Manager struct {
	cfg    Config
	t      *topo.Topology
	faults *fabric.FaultSet
	alloc  *sched.Allocator // nil when the topology is not an RLFT
	orderv *order.Ordering
	// orderHostOf is orderv.HostOf as the order frame carries it.
	orderHostOf []uint32
	// healthy is route.DModK's tables over the fault-free fabric, built
	// once by New: what every rebuild repairs.
	healthy *fabric.Tables

	cur     atomic.Pointer[FabricState]
	clk     clock
	events  chan event
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool
	mu      sync.Mutex // guards started/closed transitions

	// OnSwap, when set before Start, is called with every snapshot just
	// before it becomes current (including the initial one from New via
	// Start). Tests use it to record the exact set of states ever
	// served.
	OnSwap func(*FabricState)

	// validate is swappable so tests can force rebuild failures and
	// observe the retry/backoff path. Defaults to validateTables.
	validate func(*fabricTables) error

	gate chan struct{} // max-inflight semaphore for the HTTP layer

	// Live binary-protocol connections, force-closed on Close so
	// ServeWire loops never outlive the manager.
	wireMu     sync.Mutex
	wireConns  map[net.Conn]struct{}
	wireClosed bool

	// Per-endpoint RED handles for the binary protocol, resolved once.
	wireEpochEP    *obs.REDEndpoint
	wireRouteSetEP *obs.REDEndpoint
	wireOrderEP    *obs.REDEndpoint

	// journal is the bounded fabric event ring served at /v1/events.
	journal *Journal
	// spanSeq drives 1-in-N request-span sampling.
	spanSeq atomic.Uint64

	// metrics handles (nil-safe when cfg.Metrics is nil)
	mEpoch       *obs.Gauge
	mReroutes    *obs.Counter
	mRerouteFail *obs.Counter
	mEvents      *obs.Counter
	mJobsActive  *obs.Gauge
	mRerouteUS   *obs.Histogram
	mCheckFail   *obs.Counter
	mWireRoutes  *obs.Counter
	mWireConns   *obs.Gauge
	// rebuilds run inside an open debounce window, and those of them a
	// later event of the burst discarded
	mSpec, mSpecDiscarded *obs.Counter
}

// New builds a manager and its initial epoch-1 snapshot (synchronously,
// so Current never returns nil). The event loop is not running until
// Start.
func New(cfg Config) (*Manager, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fmgr: Config.Topo is required")
	}
	cfg.fill()
	m := &Manager{
		cfg:    cfg,
		t:      cfg.Topo,
		faults: fabric.NewFaultSet(cfg.Topo),
		orderv: order.Topology(cfg.Topo.NumHosts(), nil),
		clk:    newWallClock(),
		events: make(chan event, 256),
		done:   make(chan struct{}),
		gate:   make(chan struct{}, cfg.MaxInflight),

		wireConns: map[net.Conn]struct{}{},
	}
	m.orderHostOf = make([]uint32, len(m.orderv.HostOf))
	for i, h := range m.orderv.HostOf {
		m.orderHostOf[i] = uint32(h)
	}
	m.journal = NewJournal(cfg.JournalSize)
	m.validate = m.validateTables
	var err error
	if m.healthy, err = fabric.Healthy(route.DModK(cfg.Topo)); err != nil {
		return nil, fmt.Errorf("fmgr: %w", err)
	}
	if reg := cfg.Metrics; reg != nil {
		m.mEpoch = reg.Gauge("fmgr_epoch")
		m.mReroutes = reg.Counter("fmgr_reroutes_total")
		m.mRerouteFail = reg.Counter("fmgr_reroute_failures_total")
		m.mSpec = reg.Counter("fmgr_speculative_rebuilds_total")
		m.mSpecDiscarded = reg.Counter("fmgr_speculative_rebuilds_discarded_total")
		m.mEvents = reg.Counter("fmgr_events_total")
		m.mJobsActive = reg.Gauge("fmgr_jobs_active")
		m.mRerouteUS = reg.MustHistogram("fmgr_reroute_latency_us",
			[]float64{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1e6})
		m.mCheckFail = reg.Counter("fmgr_check_failures_total")
		m.mWireRoutes = reg.Counter("fmgr_wire_routes_served_total")
		m.mWireConns = reg.Gauge("fmgr_wire_conns")
	}
	wireRED := obs.NewRED(cfg.Metrics, "fmgr_wire")
	m.wireEpochEP = wireRED.Endpoint("epoch")
	m.wireRouteSetEP = wireRED.Endpoint("route_set")
	m.wireOrderEP = wireRED.Endpoint("order")
	if a, err := sched.New(cfg.Topo); err == nil {
		m.alloc = a
	}
	st, err := m.buildState(1, nil)
	if err != nil {
		return nil, fmt.Errorf("fmgr: initial snapshot: %w", err)
	}
	if err := m.validate(st.tb); err != nil {
		return nil, fmt.Errorf("fmgr: initial snapshot invalid: %w", err)
	}
	m.cur.Store(st)
	m.mEpoch.Set(int64(st.Epoch))
	return m, nil
}

// Start launches the event loop. Safe to call once.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	if m.OnSwap != nil {
		// Announce the initial snapshot through the same channel as
		// later swaps, so observers hold a complete epoch history.
		m.OnSwap(m.cur.Load())
	}
	m.wg.Add(1)
	go m.loop()
}

// Close stops the event loop and waits for it to exit. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	m.mu.Unlock()
	m.closeWireConns()
	m.wg.Wait()
}

// Current returns the live snapshot. The result is immutable and safe
// to use for any length of time; it just stops being current after the
// next swap.
func (m *Manager) Current() *FabricState { return m.cur.Load() }

// Events returns up to n journal records, oldest first (n <= 0 means
// all kept), plus the count of older records the ring has dropped.
func (m *Manager) Events(n int) ([]schema.Event, uint64) { return m.journal.Snapshot(n) }

// EventsSince returns up to n journal records with Seq >= since, oldest
// first, plus the count of matching records already dropped by the ring
// — the incremental-polling form of Events.
func (m *Manager) EventsSince(since uint64, n int) ([]schema.Event, uint64) {
	return m.journal.SnapshotSince(since, n)
}

// InjectFaults enqueues fail/revive events for the given links plus a
// failRandom draw of that many extra fabric links. Link IDs are
// validated here; the rerouted snapshot is swapped in asynchronously,
// when the debounce window closes. Returns the number of events enqueued.
func (m *Manager) InjectFaults(fail, revive []topo.LinkID, failRandom int) (int, error) {
	for _, l := range append(append([]topo.LinkID(nil), fail...), revive...) {
		if l < 0 || int(l) >= len(m.t.Links) {
			return 0, fmt.Errorf("fmgr: link %d out of range [0,%d)", l, len(m.t.Links))
		}
	}
	if failRandom < 0 {
		return 0, fmt.Errorf("fmgr: fail_random %d is negative", failRandom)
	}
	sent := 0
	for _, l := range fail {
		if err := m.send(event{kind: evFail, link: l}); err != nil {
			return sent, err
		}
		sent++
	}
	for _, l := range revive {
		if err := m.send(event{kind: evRevive, link: l}); err != nil {
			return sent, err
		}
		sent++
	}
	if failRandom > 0 {
		if err := m.send(event{kind: evFailRandom, n: failRandom}); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// AllocJob places a job through the event loop (the allocator is owned
// by the loop, so placements serialize with fault handling) and waits
// for the result. aligned selects the strict AllocAligned admission.
//
// On a quiet fabric the job is served on return: the snapshot carrying
// it — next epoch, the current tables shared, only this job's frame
// factored — was swapped in before the reply, so Current lists the job
// and a job-mode wire request for it succeeds. While fault events await
// their rerouted tables (an open debounce window, or a failed rebuild
// being retried) the reply comes at once and the job is served when those
// tables are, in the same snapshot. FreeJob follows the same rule.
func (m *Manager) AllocJob(size int, aligned bool) (*sched.Allocation, error) {
	if m.alloc == nil {
		return nil, fmt.Errorf("fmgr: topology %v is not an RLFT; no allocator", m.t.Spec)
	}
	reply := make(chan jobReply, 1)
	if err := m.send(event{kind: evAlloc, size: size, aligned: aligned, reply: reply}); err != nil {
		return nil, err
	}
	r := <-reply
	return r.alloc, r.err
}

// FreeJob releases a job through the event loop.
func (m *Manager) FreeJob(id sched.JobID) error {
	if m.alloc == nil {
		return fmt.Errorf("fmgr: topology %v is not an RLFT; no allocator", m.t.Spec)
	}
	reply := make(chan jobReply, 1)
	if err := m.send(event{kind: evFree, job: id, reply: reply}); err != nil {
		return err
	}
	return (<-reply).err
}

func (m *Manager) send(ev event) error {
	// Check done first: a select with both an open buffer slot and a
	// closed done channel picks randomly, which would let events slip
	// into a closed manager.
	select {
	case <-m.done:
		return fmt.Errorf("fmgr: manager closed")
	default:
	}
	// The debounce window runs from here, not from when the loop gets
	// round to the event: a rebuild in progress must not lengthen it.
	ev.at = m.clk.Now()
	select {
	case m.events <- ev:
		m.mEvents.Inc()
		return nil
	case <-m.done:
		return fmt.Errorf("fmgr: manager closed")
	}
}

// clock is the event loop's time: Now, and the loop's one timer. Arm
// makes C deliver once at t, replacing any earlier arming; the zero
// time disarms. Tests run the loop on a scripted one.
type clock interface {
	Now() time.Time
	Arm(t time.Time)
	C() <-chan time.Time
}

type wallClock struct{ t *time.Timer }

func newWallClock() wallClock {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return wallClock{t}
}

func (wallClock) Now() time.Time        { return time.Now() }
func (w wallClock) C() <-chan time.Time { return w.t.C }
func (w wallClock) Arm(t time.Time) {
	if !w.t.Stop() {
		select { // the loop is the only receiver: drain a tick it has not read
		case <-w.t.C:
		default:
		}
	}
	if !t.IsZero() {
		w.t.Reset(time.Until(t))
	}
}

// candidate is a built and validated snapshot waiting for its debounce
// window to close, with the journal records of its build: they are
// written once its fate is known, as they are if it is published and as
// superseded if a later fault event discards it. A job event inside the
// window does not discard it: the jobs view is assembled again over the
// candidate's tables.
type candidate struct {
	st    *FabricState
	recs  []schema.Event
	built time.Time
}

// touched is what one applied event invalidated of the published
// snapshot: the tables (and with them everything), the jobs view over
// them, or nothing — a refused placement, a free of an unknown job, a
// fail_random draw that failed.
type touched int

const (
	touchedNothing touched = iota
	touchedJobs
	touchedTables
)

// loop is the single writer: it owns the fault set and the allocator,
// coalesces fault events over the debounce window, and swaps validated
// snapshots. The window delays publication only: the loop rebuilds for
// the first fault event of a burst at once and holds the snapshot,
// publishing it when the window closes — unless a later fault event
// discarded it, and then the rebuild runs again at the close. Either way
// no tables are swapped in before the window of the last fault event
// they reflect has closed. A failed rebuild keeps the previous snapshot
// current and retries with exponential backoff.
//
// A job event changes no table and waits for no window. With every
// fault event published it is published at once — the current tables
// under a new jobs view, next epoch — and its caller is answered after
// that swap. While fault events await their tables it is answered at
// once and rides with them: laid over the held snapshot's tables, or
// picked up by the rebuild to come.
func (m *Manager) loop() {
	defer m.wg.Done()
	var (
		dirty     bool      // fault events applied that no published tables reflect
		speculate bool      // a burst has just begun: build without waiting for its window
		windowEnd time.Time // when the window of the last applied fault event closes
		retryAt   time.Time // when a failed rebuild is tried again; zero: none pending
		backoff   = m.cfg.retryBase
		held      *candidate // reflects every applied event; nil when nothing does
	)
	for {
		select {
		case ev := <-m.events:
			what, reply := m.apply(ev)
			switch {
			case what == touchedTables:
				if held != nil {
					for i := range held.recs {
						held.recs[i].Outcome = schema.OutcomeSuperseded
					}
					m.journal.Record(held.recs...)
					m.mSpecDiscarded.Inc()
					held = nil
				}
				speculate = speculate || !dirty
				dirty, windowEnd = true, ev.at.Add(m.cfg.Debounce)
			case what == touchedJobs && held != nil:
				held.st = m.assemble(held.st.Epoch, held.st.tb, held.st)
			case what == touchedJobs && !dirty:
				sp := m.cfg.Spans.StartTrace("publish_jobs")
				cur := m.cur.Load()
				st := m.assemble(cur.Epoch+1, cur.tb, cur)
				m.publish(st, fmt.Sprintf("tables=reused wire_precompute_us=%d", st.assembleUS))
				sp.End()
			}
			if ev.reply != nil {
				ev.reply <- reply
			}
			if len(m.events) > 0 {
				continue // apply what is already queued before building for any of it
			}
		case <-m.clk.C():
		case <-m.done:
			// Unblock any callers waiting on a job reply.
			for {
				select {
				case ev := <-m.events:
					if ev.reply != nil {
						ev.reply <- jobReply{err: fmt.Errorf("fmgr: manager closed")}
					}
				default:
					return
				}
			}
		}
		now := m.clk.Now()
		// Build at the start of a burst, when a retry is due, and at the
		// close of the window for whatever is still unbuilt.
		if dirty && held == nil && (speculate || !now.Before(windowEnd) || !retryAt.IsZero() && !now.Before(retryAt)) {
			if now.Before(windowEnd) {
				m.mSpec.Inc()
			}
			st, recs, err := m.tryRebuild()
			now = m.clk.Now()
			if err != nil {
				m.journal.Record(recs...)
				m.mRerouteFail.Inc()
				retryAt = now.Add(backoff)
				if backoff *= 2; backoff > m.cfg.retryMax {
					backoff = m.cfg.retryMax
				}
			} else {
				held, retryAt, backoff = &candidate{st, recs, now}, time.Time{}, m.cfg.retryBase
			}
		}
		speculate = false
		if held != nil && !now.Before(windowEnd) {
			m.journal.Record(held.recs...)
			m.mReroutes.Inc()
			m.publish(held.st, fmt.Sprintf("tables=rebuilt speculated=%t wait_us=%d",
				held.built.Before(windowEnd), now.Sub(held.built).Microseconds()))
			held, dirty = nil, false
		}
		var next time.Time // of the open window's close and a pending retry, the earlier
		if dirty {
			next = windowEnd
			if held == nil && !retryAt.IsZero() && (retryAt.Before(next) || !now.Before(next)) {
				next = retryAt
			}
		}
		m.clk.Arm(next)
	}
}

// publish swaps st in and journals the swap; how says what became of the
// tables it carries.
func (m *Manager) publish(st *FabricState, how string) {
	if m.OnSwap != nil {
		m.OnSwap(st)
	}
	m.cur.Store(st)
	m.mEpoch.Set(int64(st.Epoch))
	m.journal.Record(schema.Event{Kind: schema.EvSwap, Epoch: st.Epoch, Engine: st.Engine,
		Outcome: schema.OutcomeOK,
		Detail: fmt.Sprintf("engine=%s failed_links=%d broken_pairs=%d jobs=%d %s",
			st.Engine, len(st.FailedLinks), st.BrokenPairs, len(st.Jobs), how)})
}

// apply mutates the loop-owned fault set / allocator for one event,
// journals what was asked for and reports what it invalidated, with the
// answer a job event's caller is owed. The reroute/validate/swap phases
// that follow journal themselves, so /v1/events replays the full
// fault → reroute → swap lifecycle. It builds no tables.
func (m *Manager) apply(ev event) (touched, jobReply) {
	epoch := m.cur.Load().Epoch
	switch ev.kind {
	case evFail:
		m.faults.Fail(ev.link)
		m.journal.Record(schema.Event{Kind: schema.EvFault, Epoch: epoch,
			Outcome: schema.OutcomeOK, Detail: fmt.Sprintf("link %d", ev.link)})
	case evRevive:
		m.faults.Revive(ev.link)
		m.journal.Record(schema.Event{Kind: schema.EvRevive, Epoch: epoch,
			Outcome: schema.OutcomeOK, Detail: fmt.Sprintf("link %d", ev.link)})
	case evFailRandom:
		if err := m.faults.FailRandomFabricLinksRand(ev.n, m.cfg.Rand); err != nil {
			// Draw failed (more faults requested than links); the fault
			// set is unchanged, nothing to roll back or reroute.
			m.mRerouteFail.Inc()
			m.journal.Record(schema.Event{Kind: schema.EvFaultRandom, Epoch: epoch,
				Outcome: schema.OutcomeError, Detail: err.Error()})
			return touchedNothing, jobReply{}
		}
		m.journal.Record(schema.Event{Kind: schema.EvFaultRandom, Epoch: epoch,
			Outcome: schema.OutcomeOK, Detail: fmt.Sprintf("n=%d", ev.n)})
	case evAlloc:
		var a *sched.Allocation
		var err error
		if ev.aligned {
			a, err = m.alloc.AllocAligned(ev.size)
		} else {
			a, err = m.alloc.Alloc(ev.size)
		}
		if err != nil {
			m.journal.Record(schema.Event{Kind: schema.EvAlloc, Epoch: epoch,
				Outcome: schema.OutcomeError, Detail: err.Error()})
			return touchedNothing, jobReply{err: err}
		}
		m.mJobsActive.Add(1)
		m.journal.Record(schema.Event{Kind: schema.EvAlloc, Epoch: epoch,
			Outcome: schema.OutcomeOK, Detail: fmt.Sprintf("job %d size %d", a.ID, ev.size)})
		return touchedJobs, jobReply{alloc: a}
	case evFree:
		if err := m.alloc.Free(ev.job); err != nil {
			m.journal.Record(schema.Event{Kind: schema.EvFree, Epoch: epoch,
				Outcome: schema.OutcomeError, Detail: err.Error()})
			return touchedNothing, jobReply{err: err}
		}
		m.mJobsActive.Add(-1)
		m.journal.Record(schema.Event{Kind: schema.EvFree, Epoch: epoch,
			Outcome: schema.OutcomeOK, Detail: fmt.Sprintf("job %d", ev.job)})
		return touchedJobs, jobReply{}
	}
	return touchedTables, jobReply{}
}

// tryRebuild computes and validates the next snapshot; on any error the
// caller keeps the previous one current. Each phase is spanned and has
// its journal record — reroute (tables + arena + HSD, and the jobs view
// over them), then validate — returned for the caller to write once it
// knows what became of the snapshot.
func (m *Manager) tryRebuild() (*FabricState, []schema.Event, error) {
	sp := m.cfg.Spans.StartTrace("rebuild")
	defer sp.End()
	epoch := m.cur.Load().Epoch + 1
	sp.Tag(obs.Num("epoch", float64(epoch)))

	start := time.Now()
	rsp := sp.Child("reroute")
	st, err := m.buildState(epoch, rsp)
	rsp.End()
	rec := m.phaseRecord(schema.EvReroute, epoch, start, err)
	if err == nil {
		rec.Detail = fmt.Sprintf("engine=%s failed_links=%d broken_pairs=%d unroutable=%d"+
			" engine_tables_us=%d rewalked_cols=%d shift_hsd_us=%d hsd_climbed=%d/%d wire_precompute_us=%d",
			st.Engine, len(st.FailedLinks), st.BrokenPairs, len(st.Unroutable),
			st.tb.engineTablesUS, st.tb.RewalkedCols, st.tb.shiftHSDUS,
			st.HSD.Climbed, len(st.HSD.Stages), st.assembleUS)
	}
	recs := []schema.Event{rec}
	if err == nil {
		vstart, vsp := time.Now(), sp.Child("validate")
		err = m.validate(st.tb)
		vsp.End()
		if err != nil {
			m.mCheckFail.Inc()
		}
		recs = append(recs, m.phaseRecord(schema.EvValidate, epoch, vstart, err))
	}
	m.mRerouteUS.Observe(float64(time.Since(start).Microseconds()))
	if err != nil {
		sp.Tag(obs.Str("outcome", schema.OutcomeError))
		return nil, recs, err
	}
	return st, recs, nil
}

// phaseRecord is the journal record of a rebuild phase begun at start and
// ending now, with err as its outcome.
func (m *Manager) phaseRecord(kind string, epoch uint64, start time.Time, err error) schema.Event {
	rec := schema.Event{TimeUnixNS: time.Now().UnixNano(), Kind: kind, Epoch: epoch, Engine: servedEngine,
		DurationUS: time.Since(start).Microseconds(), Outcome: schema.OutcomeOK}
	if err != nil {
		rec.Outcome, rec.Detail = schema.OutcomeError, err.Error()
	}
	return rec
}

// buildState is a snapshot from scratch, the only way there is to one:
// the repaired tables under the current fault set, and the jobs view
// assembled over them. sp, when tracing, parents one child span per
// phase.
func (m *Manager) buildState(epoch uint64, sp *obs.Span) (*FabricState, error) {
	tables, err := m.buildTables(sp)
	if err != nil {
		return nil, err
	}
	c := sp.Child("wire_precompute")
	defer c.End()
	return m.assemble(epoch, tables, nil), nil
}

// buildTables repairs the healthy tables under the current fault set —
// lenient path arena, unroutable and broken accounting — and takes the
// standing Shift-HSD report over its arena.
func (m *Manager) buildTables(sp *obs.Span) (*fabricTables, error) {
	tables := &fabricTables{failedLinks: m.faults.FailedLinks()}
	c, t0 := sp.Child("engine_tables"), time.Now()
	c.TagStr("engine", servedEngine)
	var err error
	tables.Tables, err = m.faults.Repair(m.healthy, nil)
	c.End()
	tables.engineTablesUS = time.Since(t0).Microseconds()
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", servedEngine, err)
	}
	// The standing answer to "is this fabric still contention free":
	// Shift under the topology order over the pairs the tables serve.
	c, t0 = sp.Child("shift_hsd"), time.Now()
	tables.hsd, err = hsd.Analyze(tables.Compiled, m.orderv, cps.Shift(m.t.NumHosts()))
	c.End()
	tables.shiftHSDUS = time.Since(t0).Microseconds()
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// assemble lays the jobs view — the live allocations, one frozen
// route-set frame each, the order frame — over tables and stamps the
// result with epoch: what every publish ends in, whether the tables were
// rebuilt for it or are the ones already served. When tables are prev's,
// a job whose frame prev already holds keeps that frame as it is, stamp
// included, so over unchanged tables only a new job's frame is factored
// and encoded — done here so the wire read path serves precomputed bytes
// and steady-state job queries never touch the arena.
func (m *Manager) assemble(epoch uint64, tables *fabricTables, prev *FabricState) *FabricState {
	t0 := time.Now()
	st := &FabricState{
		Epoch:       epoch,
		Topo:        m.t,
		Paths:       tables.Compiled,
		Engine:      servedEngine,
		Routing:     tables.Compiled.Label(),
		Ordering:    m.orderv,
		HSD:         tables.hsd,
		FailedLinks: tables.failedLinks,
		Unroutable:  tables.Unroutable,
		BrokenPairs: tables.BrokenPairs,
		tb:          tables,
	}
	if m.alloc != nil {
		for _, j := range m.alloc.Jobs() {
			jc := *j
			jc.Hosts = append([]int(nil), j.Hosts...)
			st.Jobs = append(st.Jobs, &jc)
		}
	}
	st.wireOrder = wire.AppendFrame(nil, &wire.OrderResp{
		Epoch:  epoch,
		Label:  m.orderv.Label,
		HostOf: m.orderHostOf,
	})
	st.JobRouteSets = make(map[sched.JobID]JobWireFrame, len(st.Jobs))
	for _, j := range st.Jobs {
		if prev != nil && prev.tb == tables {
			if jw, ok := prev.JobRouteSets[j.ID]; ok {
				st.JobRouteSets[j.ID] = jw
				continue
			}
		}
		jw := encodeJobFrame(j.ID, len(j.Hosts)*(len(j.Hosts)-1), factorRouteSet(epoch, tables.Tables, j.Hosts))
		jw.Epoch = epoch
		st.JobRouteSets[j.ID] = jw
	}
	st.assembleUS = time.Since(t0).Microseconds()
	return st
}

// factorRouteSet reads a job's whole ordered pair set out of the arena
// in the arena's own shape — per host its row and head, one tail per
// (row the job reads, job host), the broken pairs by index — without
// ever listing the pairs: what a 324-host job ships is 18 x 324 tails,
// not 104,652 paths.
func factorRouteSet(epoch uint64, tb *fabric.Tables, hosts []int) *wire.RouteSetFactored {
	c, n := tb.Compiled, len(hosts)
	stride := c.Stride()
	m := &wire.RouteSetFactored{Epoch: epoch, Engine: servedEngine, Routing: tb.Compiled.Label(),
		Stride: uint32(stride), Hosts: make([]wire.FactoredHost, n), TailOff: []uint32{0}}
	rows, dsts, cells := make([]int32, n), make([]int32, n), make([]uint32, n*stride)
	for j, h := range hosts {
		dsts[j] = int32(h)
	}
	local := map[int]uint32{} // arena row -> its index in the message, by first use
	for i, h := range hosts {
		row, head, shared := c.Row(h)
		if _, seen := local[row]; !seen {
			local[row] = m.Rows
			m.Rows++
			for j := range rows {
				rows[j] = int32(row)
			}
			c.Tails(cells, rows, dsts)
			for j := range hosts {
				for _, e := range cells[j*stride : j*stride+stride] {
					if e != 0 {
						m.Tails = append(m.Tails, e-1)
					}
				}
				m.TailOff = append(m.TailOff, uint32(len(m.Tails)))
			}
		}
		m.Hosts[i] = wire.FactoredHost{Host: uint32(h), Row: local[row], Head: wire.NoHead}
		if shared {
			m.Hosts[i].Head = uint32(head)
		}
	}
	for i := 0; c.NumBroken() > 0 && i < n; i++ {
		for j := range hosts {
			if i != j && c.Broken(hosts[i], hosts[j]) {
				m.Broken = append(m.Broken, uint64(i*n+j))
			}
		}
	}
	return m
}

// encodeJobFrame freezes one job's served bytes under the wire's
// limits: a set no peer would accept degrades to a stored ErrorResp, so
// the client gets an application-level answer instead of a frame its
// decoder must reject.
func encodeJobFrame(job sched.JobID, pairs int, resp wire.Message) JobWireFrame {
	frame, err := wire.AppendFrameChecked(nil, resp)
	if err == nil {
		return JobWireFrame{Frame: frame, Pairs: pairs, Code: 200}
	}
	return JobWireFrame{
		Frame: wire.EncodeFrame(&wire.ErrorResp{
			Code: wire.CodeInternal,
			Msg:  fmt.Sprintf("job %d: %d-pair route set: %v; fetch in pairs-mode chunks", job, pairs, err),
		}),
		Code: 500,
	}
}

// validateTables proves candidate tables safe to serve via the shared
// invariant engine: every non-broken pair's compiled path must be
// connected, up*/down*-shaped, delivered and over links alive in the
// fault set the tables were built for, and pairs involving unroutable
// hosts must be marked broken — the same assertions ftcheck
// and the property sweeps run, so the daemon cannot drift from the
// tested contract.
func (m *Manager) validateTables(tables *fabricTables) error {
	un := make([]bool, m.t.NumHosts())
	for _, j := range tables.Unroutable {
		un[j] = true
	}
	pred := func(j int) bool { return j >= 0 && j < len(un) && un[j] }
	// Served paths must avoid the links dead when the tables were built;
	// with none dead, liveness is not checked at all.
	var alive func(topo.LinkID) bool
	if len(tables.failedLinks) > 0 {
		dead := make([]bool, len(m.t.Links))
		for _, l := range tables.failedLinks {
			dead[l] = true
		}
		alive = func(l topo.LinkID) bool { return !dead[l] }
	}
	if err := invariant.LenientArenaAlive(m.t, tables.Compiled, pred, alive); err != nil {
		return fmt.Errorf("fmgr: engine %s: %w", servedEngine, err)
	}
	return nil
}

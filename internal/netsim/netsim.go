// Package netsim is a packet-level, event-driven model of an
// InfiniBand-like fat-tree network: virtual cut-through switching, credit
// based link-level flow control, input-buffered switches with
// head-of-line blocking, and PCIe-capped host injection. It reproduces
// the role of the paper's OMNeT++ simulation platform (Section II),
// calibrated to the same nominal rates: QDR links at 4000 MB/s and PCIe
// Gen2 8x hosts at 3250 MB/s.
//
// Traffic follows the deterministic forwarding tables computed by the
// route package, so contention (or its absence) is exactly the phenomenon
// the HSD model predicts — but here it plays out in time, producing
// effective bandwidth and latency numbers.
//
// The hot core is allocation-free in steady state: packets, messages and
// per-port bookkeeping live in flat arenas indexed by integer ids, and
// every scheduler event is a plain-old-data dispatch record (see
// internal/des), so repeated runs on one Network reuse all state.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Config calibrates the simulator.
type Config struct {
	// LinkBandwidth is the wire rate in bytes/second (QDR: 4000 MB/s).
	LinkBandwidth float64
	// HostBandwidth caps host injection in bytes/second (PCIe Gen2 8x:
	// 3250 MB/s).
	HostBandwidth float64
	// LinkLatency is the propagation + SerDes delay per hop.
	LinkLatency des.Time
	// SwitchLatency is the per-switch processing (cut-through) delay.
	SwitchLatency des.Time
	// MTU is the packet payload size in bytes (IB: 2048).
	MTU int
	// BufferPackets is the number of MTU-sized input-buffer slots per
	// switch port — the credit budget of virtual cut-through.
	BufferPackets int
	// Metrics, when non-nil, receives the simulator's counters,
	// gauges and histograms (metric names in docs/OBSERVABILITY.md).
	Metrics *obs.Registry
	// Probes, when non-nil, samples per-link utilization, input-buffer
	// occupancy, credit stalls and event-queue depth at the sampler's
	// interval of simulated time, as JSONL, and closes each Run* call
	// with one rollup record carrying every channel's max input-buffer
	// depth and busy fraction. Probe ticks are scheduler events, so
	// Stats.Events grows slightly when enabled; message timings and all
	// other Stats fields are unaffected.
	Probes *obs.Sampler
	// Progress, when non-nil, receives live run counters (simulated
	// time, events executed, messages delivered) that a wall-clock
	// reporter goroutine reads concurrently — see Progress.Report.
	// Publishing rides daemon ticks, so the zero-progress hot path pays
	// nothing.
	Progress *Progress
	// Trace, when non-nil, records message/packet lifecycle events
	// (inject, head-arrives, blocked-on-credit, deliver) and per-stage
	// phase markers in Chrome trace-event form — open the file in
	// Perfetto or chrome://tracing.
	Trace *obs.Tracer
	// TraceLabel names the collective-phase lane of the trace;
	// mpi.Job.SimulateMode sets it to the sequence name when empty.
	TraceLabel string
}

// DefaultConfig returns the paper's calibration.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth: 4000e6,
		HostBandwidth: 3250e6,
		LinkLatency:   100 * des.Nanosecond,
		SwitchLatency: 100 * des.Nanosecond,
		MTU:           2048,
		BufferPackets: 8,
	}
}

func (c Config) validate() error {
	for _, bw := range []float64{c.LinkBandwidth, c.HostBandwidth} {
		// Written so NaN fails too.
		if !(bw > 0 && bw <= math.MaxFloat64) {
			return fmt.Errorf("netsim: bandwidth %g is not a positive finite rate", bw)
		}
	}
	if c.MTU < 1 || c.MTU > math.MaxInt32 {
		return fmt.Errorf("netsim: MTU %d outside [1, %d] bytes", c.MTU, math.MaxInt32)
	}
	if c.BufferPackets < 1 || c.BufferPackets > math.MaxInt32 {
		return fmt.Errorf("netsim: %d buffer slots per port outside [1, %d]", c.BufferPackets, math.MaxInt32)
	}
	// Event times are int64 picoseconds; hops of at most a second keep
	// every sum of delays far from overflow.
	if slowest := min(c.LinkBandwidth, c.HostBandwidth); float64(c.MTU) > slowest {
		return fmt.Errorf("netsim: one %d-byte MTU takes over 1 s to serialize at %g bytes/s", c.MTU, slowest)
	}
	if c.LinkLatency < 0 || c.SwitchLatency < 0 || c.LinkLatency > des.Second || c.SwitchLatency > des.Second {
		return fmt.Errorf("netsim: latencies %d ps and %d ps outside [0, 1 s]", c.LinkLatency, c.SwitchLatency)
	}
	return nil
}

// Message is one MPI-level send.
type Message struct {
	Src, Dst int
	Bytes    int64
}

// Stats summarizes a run.
type Stats struct {
	// Duration is the simulated makespan.
	Duration des.Time
	// BytesDelivered counts payload bytes that reached their
	// destination hosts.
	BytesDelivered int64
	// MessagesDelivered counts completed messages.
	MessagesDelivered int64
	// LatencySum/Min/Max aggregate message latencies (injection start
	// of the first packet to tail arrival of the last).
	LatencySum, LatencyMin, LatencyMax des.Time
	// Events is the number of simulator events executed.
	Events uint64
	// StageDurations holds the per-stage makespans in barrier mode.
	StageDurations []des.Time
	// LinkBusy is the cumulative transmit-busy time per directed
	// channel (2 per cable: up = 2*link, down = 2*link+1).
	LinkBusy []des.Time
	// OutOfOrderPackets counts packet arrivals whose sequence number
	// did not match the in-order expectation at the destination.
	OutOfOrderPackets int64
}

// EffectiveBandwidth returns aggregate delivered bytes per second.
func (s Stats) EffectiveBandwidth() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BytesDelivered) / (float64(s.Duration) / float64(des.Second))
}

// MeanLatency returns the average message latency.
func (s Stats) MeanLatency() des.Time {
	if s.MessagesDelivered == 0 {
		return 0
	}
	return s.LatencySum / des.Time(s.MessagesDelivered)
}

// MaxLinkUtilization returns the busiest directed channel's busy
// fraction of the makespan — 1.0 means some wire never went idle (a
// saturated hot spot).
func (s Stats) MaxLinkUtilization() float64 {
	if s.Duration <= 0 {
		return 0
	}
	var max des.Time
	for _, b := range s.LinkBusy {
		if b > max {
			max = b
		}
	}
	return float64(max) / float64(s.Duration)
}

// intQueue is a FIFO of int32 ids with an advancing head, compacted in
// place so steady-state operation never reallocates.
type intQueue struct {
	items []int32
	head  int
}

func (q *intQueue) push(v int32) {
	if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

func (q *intQueue) pop() int32 {
	v := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

func (q *intQueue) front() int32 { return q.items[q.head] }
func (q *intQueue) len() int     { return len(q.items) - q.head }
func (q *intQueue) reset()       { q.items = q.items[:0]; q.head = 0 }

// channel is one direction of a cable: a transmitter plus the receiver's
// input buffer. Channels live in one flat slice indexed by id; buffer
// and arbitration FIFOs hold packet/channel ids, not pointers.
type channel struct {
	lastBit des.Time // busy until (tail departure of current packet)
	busy    des.Time // cumulative transmit occupancy
	rate    float64  // transmitter bytes/second
	serMTU  des.Time // serTime(MTU, rate), precomputed — most packets are full

	id       int32
	from, to topo.NodeID
	fromHost int32 // host index of the from node, or -1 for a switch
	toHost   int32 // host index of the to node, or -1 for a switch

	// Receiver input buffer (virtual cut-through credits).
	credits int32
	buf     intQueue // packet ids; front is at the switch crossbar head

	// Output arbitration at the transmitter (switch side): input
	// channels whose buffer head wants this channel, FIFO.
	reqs intQueue // channel ids
	// requested marks that this channel's buffer head is already queued
	// at its output channel (avoid duplicate requests).
	requested bool
	// arriving counts the header arrivals scheduled on this channel
	// that have not run yet (switch-bound channels only).
	arriving int32
}

// packet is one MTU-or-less unit of a message in flight. Packets are
// pooled: deliver returns the id to a free list for the next injection.
type packet struct {
	tailArrive des.Time // when the last bit reaches the current node
	msg        int32    // message id
	seq        int32    // 0-based position within the message
	hop        int32    // index of the channel traversed next
	next       int32    // channel id at path[hop], -1 past the last hop
	size       int32    // payload bytes
	// pathOff/pathLen mirror the message's route bounds in the shared
	// path arena, so per-hop forwarding never reloads the message.
	pathOff, pathLen int32
	// ownPath holds the per-packet route of an adaptive router; its
	// capacity is recycled with the packet. Empty means "use the
	// message path".
	ownPath []int32
	perPkt  bool
}

// message tracks send/receive progress of one Message. The route is a
// slice of the Network's shared path arena.
type message struct {
	Message
	pathOff, pathLen   int32
	packets            int32
	sentPkts, recvPkts int32
	startedAt          des.Time
	// notBefore delays injection (simulated OS jitter / skew); zero
	// means immediately eligible.
	notBefore des.Time
	// stage tags the collective stage in dependent mode (-1 otherwise).
	stage    int32
	started  bool
	timerSet bool
}

// hostState is the injection queue of one end-port.
type hostState struct {
	id    int32
	up    int32    // channel id host -> leaf
	queue intQueue // message ids; nextIn is the queue head
	// nextIn indexes the next message to inject within queue.items —
	// the queue is never popped (delivery bookkeeping revisits it), so
	// it is a plain slice with a cursor.
	nextIn int

	// Dependent-mode bookkeeping: per stage, how many of this host's
	// sends have not yet fully left the NIC and how many expected
	// receives have not yet arrived. readyStage is the first stage the
	// host may inject into (all earlier stages complete).
	sendLeft, recvLeft []int32
	readyStage         int32
	dependent          bool
}

// stageComplete reports whether the host finished stage s.
func (h *hostState) stageComplete(s int32) bool {
	return h.sendLeft[s] == 0 && h.recvLeft[s] == 0
}

// Dispatch-event kinds, drained by Network.drain.
const (
	evKick    uint16 = iota // a = host id
	evArrive                // a = packet, b = channel, c = tailArrive
	evDepart                // a = packet, b = channel, c = from-buffer channel id or -1
	evDeliver               // a = packet, b = channel
)

// Network is a simulator instance bound to a topology and routing. All
// run state lives in flat arenas reused across runs, so a Network can
// drive many simulations without reallocating its hot structures.
type Network struct {
	t   *topo.Topology
	rt  route.Router
	cfg Config
	// perPkt re-asks the router for a path for every packet instead of
	// once per message, as an adaptive fabric does: set exactly when the
	// router is a *route.Adaptive. Its random choices let packets
	// overtake each other; Stats.OutOfOrderPackets counts the damage.
	perPkt bool

	sched    *des.Scheduler
	channels []channel
	hosts    []hostState

	msgs     []message
	paths    []int32 // shared path arena, sliced per message
	pkts     []packet
	freePkts []int32

	walkBuf []int32 // per-packet routing scratch

	stats     Stats
	remaining int // undelivered messages
	err       error

	// Eager final-hop delivery (perf): hosts never back-pressure, so
	// once a packet starts its last hop its delivery instant is fully
	// determined and the arrive/deliver events carry no decisions. When
	// nothing observes them (no obs hooks, no per-packet routing, no
	// dependency bookkeeping) the simulator completes delivery inline at transmit
	// time instead, stamped with the true arrival time. elided counts
	// the skipped events so Stats.Events matches an instrumented run;
	// endAt tracks the latest delivery so the clock can be advanced to
	// where the last elided event would have run.
	eager  bool
	elided uint64
	endAt  des.Time

	// busyNS accumulates wall-clock time spent inside drain; it leaves
	// the run only as the netsim_busy_ns gauge, never through Stats.
	busyNS int64

	// Observability (nil when disabled; see obs.go).
	ob            *simObs
	traceMetaDone bool
}

// New creates a simulator for the topology/routing pair.
func New(rt route.Router, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, perPkt := rt.(*route.Adaptive)
	return &Network{t: rt.Topology(), rt: rt, cfg: cfg, perPkt: perPkt}, nil
}

// reset rebuilds the dynamic state for a fresh run, reusing every arena
// the previous run left behind.
func (nw *Network) reset() {
	t := nw.t
	if nw.sched == nil {
		nw.sched = des.NewScheduler()
	} else {
		nw.sched.Reset()
	}
	nw.stats = Stats{LatencyMin: 1 << 62}
	nw.err = nil
	nw.remaining = 0
	nw.msgs = nw.msgs[:0]
	nw.paths = nw.paths[:0]
	nw.pkts = nw.pkts[:0]
	nw.freePkts = nw.freePkts[:0]
	if nw.channels == nil {
		nw.channels = make([]channel, 2*len(t.Links))
	}
	for i := range t.Links {
		lk := &t.Links[i]
		lower := t.Ports[lk.Lower].Node
		upper := t.Ports[lk.Upper].Node
		up := &nw.channels[2*i]
		down := &nw.channels[2*i+1]
		*up = channel{
			id: int32(2 * i), from: lower, to: upper,
			fromHost: hostIndex(t, lower), toHost: hostIndex(t, upper),
			rate: nw.cfg.LinkBandwidth, credits: int32(nw.cfg.BufferPackets),
			buf: up.buf, reqs: up.reqs,
		}
		*down = channel{
			id: int32(2*i + 1), from: upper, to: lower,
			fromHost: hostIndex(t, upper), toHost: hostIndex(t, lower),
			rate: nw.cfg.LinkBandwidth, credits: int32(nw.cfg.BufferPackets),
			buf: down.buf, reqs: down.reqs,
		}
		up.buf.reset()
		up.reqs.reset()
		down.buf.reset()
		down.reqs.reset()
		if up.fromHost >= 0 {
			// Host injection is PCIe capped; host reception is an
			// effectively infinite sink.
			up.rate = nw.cfg.HostBandwidth
			down.credits = 1 << 30
		}
		up.serMTU = serTime(int64(nw.cfg.MTU), up.rate)
		down.serMTU = serTime(int64(nw.cfg.MTU), down.rate)
	}
	if nw.hosts == nil {
		nw.hosts = make([]hostState, t.NumHosts())
	}
	for j := 0; j < t.NumHosts(); j++ {
		h := &nw.hosts[j]
		upPort := t.Ports[t.Host(j).Up[0]]
		q := h.queue
		q.reset()
		*h = hostState{id: int32(j), up: int32(2 * upPort.Link), queue: q}
	}
	nw.ob = nw.newSimObs()
	nw.elided = 0
	nw.endAt = 0
	nw.busyNS = 0
	nw.eager = nw.ob == nil && !nw.perPkt
	if p := nw.cfg.Progress; p != nil {
		p.beginRun()
	}
}

// hostIndex returns the host index of a node, or -1 for a switch.
func hostIndex(t *topo.Topology, id topo.NodeID) int32 {
	n := t.Node(id)
	if n.Kind != topo.Host {
		return -1
	}
	return int32(n.Index)
}

// drain runs the event loop to completion, pulling dispatch events
// straight off the scheduler and switching on their kind.
func (nw *Network) drain() {
	t0 := time.Now()
	defer func() { nw.busyNS += time.Since(t0).Nanoseconds() }()
	sched := nw.sched
	for {
		kind, a, b, c, ok := sched.NextEvent()
		if !ok {
			return
		}
		switch kind {
		case evArrive:
			nw.arriveHeader(a, b, des.Time(c))
		case evDepart:
			nw.departTail(a, b, int32(c))
		case evDeliver:
			nw.deliverAt(a, sched.Now())
		case evKick:
			nw.kickHost(&nw.hosts[a])
		}
	}
}

// chanID maps a route hop to a channel index.
func chanID(link topo.LinkID, up bool) int32 {
	if up {
		return int32(2 * link)
	}
	return int32(2*link + 1)
}

// pathOf appends the channel path for a src->dst flow to the shared
// arena and returns its bounds.
func (nw *Network) pathOf(src, dst int) (off, n int32, err error) {
	off = int32(len(nw.paths))
	err = nw.rt.Walk(src, dst, func(l topo.LinkID, up bool) {
		nw.paths = append(nw.paths, chanID(l, up))
	})
	return off, int32(len(nw.paths)) - off, err
}

// pktPath returns the route packet p follows.
func (nw *Network) pktPath(p *packet) []int32 {
	if p.perPkt {
		return p.ownPath
	}
	return nw.paths[p.pathOff : p.pathOff+p.pathLen]
}

// allocPkt takes a packet id from the pool.
func (nw *Network) allocPkt() int32 {
	if n := len(nw.freePkts); n > 0 {
		id := nw.freePkts[n-1]
		nw.freePkts = nw.freePkts[:n-1]
		return id
	}
	nw.pkts = append(nw.pkts, packet{})
	return int32(len(nw.pkts) - 1)
}

// load enqueues messages on their source hosts (keeping input order per
// host).
func (nw *Network) load(msgs []Message) error {
	for _, m := range msgs {
		if m.Src == m.Dst {
			return fmt.Errorf("netsim: self message at host %d", m.Src)
		}
		if m.Src < 0 || m.Src >= len(nw.hosts) || m.Dst < 0 || m.Dst >= len(nw.hosts) {
			return fmt.Errorf("netsim: message %d->%d out of range", m.Src, m.Dst)
		}
		if m.Bytes < 1 {
			return fmt.Errorf("netsim: message %d->%d has %d bytes", m.Src, m.Dst, m.Bytes)
		}
		var off, n int32
		if !nw.perPkt {
			var err error
			off, n, err = nw.pathOf(m.Src, m.Dst)
			if err != nil {
				return err
			}
		}
		pkts := (m.Bytes-1)/int64(nw.cfg.MTU) + 1
		if pkts > math.MaxInt32 {
			return fmt.Errorf("netsim: message %d->%d of %d bytes needs %d packets of %d bytes, more than %d",
				m.Src, m.Dst, m.Bytes, pkts, nw.cfg.MTU, math.MaxInt32)
		}
		id := int32(len(nw.msgs))
		nw.msgs = append(nw.msgs, message{
			Message: m, pathOff: off, pathLen: n, packets: int32(pkts), stage: -1,
		})
		nw.hosts[m.Src].queue.items = append(nw.hosts[m.Src].queue.items, id)
		nw.remaining++
	}
	if p := nw.cfg.Progress; p != nil {
		p.addTotal(int64(len(msgs)))
	}
	return nil
}

// Run simulates all messages with asynchronous per-host progression: each
// host injects its messages back to back, starting the next as soon as
// the previous one has fully left for the wire (the paper's Section II
// semantics).
func (nw *Network) Run(msgs []Message) (Stats, error) {
	nw.reset()
	if err := nw.load(msgs); err != nil {
		return Stats{}, err
	}
	return nw.finish()
}

// RunStages simulates synchronized stage progression: a barrier separates
// stages, so a stage's cost is set by its most contended link.
func (nw *Network) RunStages(stages [][]Message) (Stats, error) {
	return nw.runStages(stages, 0, 0)
}

// RunStagesJitter is RunStages with simulated OS jitter: each host's
// injection within a stage is delayed by an independent uniform draw
// from [0, jitter] — the skew the paper's Section VII attributes to OS
// noise and proposes clock-synchronization protocols against.
func (nw *Network) RunStagesJitter(stages [][]Message, jitter des.Time, seed int64) (Stats, error) {
	if jitter < 0 {
		return Stats{}, fmt.Errorf("netsim: negative jitter")
	}
	return nw.runStages(stages, jitter, seed)
}

func (nw *Network) runStages(stages [][]Message, jitter des.Time, seed int64) (Stats, error) {
	nw.reset()
	rng := rand.New(rand.NewSource(seed))
	var durs []des.Time
	var last des.Time
	for i, st := range stages {
		if err := nw.load(st); err != nil {
			return Stats{}, err
		}
		if jitter > 0 {
			nw.applyJitter(st, jitter, rng)
		}
		for j := range nw.hosts {
			nw.kickHost(&nw.hosts[j])
		}
		nw.startSamplers()
		nw.drain()
		if nw.err != nil {
			return Stats{}, nw.err
		}
		if nw.remaining != 0 {
			return Stats{}, fmt.Errorf("netsim: stage %d deadlocked with %d messages undelivered", i, nw.remaining)
		}
		nw.syncElidedClock()
		nw.obsFinalSample()
		durs = append(durs, nw.sched.Now()-last)
		nw.obsStage(i, len(st), last, nw.sched.Now())
		last = nw.sched.Now()
	}
	st := nw.collect()
	st.StageDurations = durs
	return st, nil
}

// applyJitter draws one skew per source host of the stage and delays all
// of its not-yet-injected messages by it.
func (nw *Network) applyJitter(st []Message, jitter des.Time, rng *rand.Rand) {
	start := nw.sched.Now()
	skew := make(map[int]des.Time)
	for _, m := range st {
		if _, ok := skew[m.Src]; !ok {
			skew[m.Src] = des.Time(rng.Int63n(int64(jitter) + 1))
		}
	}
	for src, d := range skew {
		h := &nw.hosts[src]
		for _, id := range h.queue.items[h.nextIn:] {
			nw.msgs[id].notBefore = start + d
		}
	}
}

// RunDependent simulates true collective dependency semantics: a host
// may inject its stage-(s+1) messages only after all of its stage-s
// sends have fully left the NIC and all of its stage-s receives have
// arrived. This is how an MPI rank actually progresses through a
// recursive-doubling or shift schedule — stricter than async per-host
// progression, looser than a global barrier.
func (nw *Network) RunDependent(stages [][]Message) (Stats, error) {
	nw.reset()
	if err := nw.loadDependent(stages); err != nil {
		return Stats{}, err
	}
	return nw.finish()
}

// loadDependent loads a staged schedule with dependency bookkeeping.
func (nw *Network) loadDependent(stages [][]Message) error {
	// Dependency progress is checked at every delivery, so deliveries
	// must run as real events in timestamp order.
	nw.eager = false
	nStages := len(stages)
	for i := range nw.hosts {
		h := &nw.hosts[i]
		h.dependent = true
		h.sendLeft = resizeInt32(h.sendLeft, nStages)
		h.recvLeft = resizeInt32(h.recvLeft, nStages)
	}
	prevLen := make([]int, len(nw.hosts))
	for sIdx, st := range stages {
		for i := range nw.hosts {
			prevLen[i] = len(nw.hosts[i].queue.items)
		}
		if err := nw.load(st); err != nil {
			return err
		}
		for i := range nw.hosts {
			h := &nw.hosts[i]
			for _, id := range h.queue.items[prevLen[i]:] {
				m := &nw.msgs[id]
				m.stage = int32(sIdx)
				h.sendLeft[sIdx]++
				nw.hosts[m.Dst].recvLeft[sIdx]++
			}
		}
	}
	return nil
}

// resizeInt32 returns a zeroed slice of length n, reusing capacity.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// finish drives an async run to completion.
func (nw *Network) finish() (Stats, error) {
	for j := range nw.hosts {
		nw.kickHost(&nw.hosts[j])
	}
	nw.startSamplers()
	nw.drain()
	if nw.err != nil {
		return Stats{}, nw.err
	}
	if nw.remaining != 0 {
		return Stats{}, fmt.Errorf("netsim: deadlock with %d messages undelivered", nw.remaining)
	}
	nw.syncElidedClock()
	nw.obsFinalSample()
	return nw.collect(), nil
}

// syncElidedClock advances the clock to the last eager delivery, the
// instant the drained queue's final event would have carried without
// elision.
func (nw *Network) syncElidedClock() {
	if nw.endAt > nw.sched.Now() {
		nw.sched.AdvanceTo(nw.endAt)
	}
}

func (nw *Network) collect() Stats {
	s := nw.stats
	s.Duration = nw.sched.Now()
	s.Events = nw.sched.Executed() + nw.elided
	if s.MessagesDelivered == 0 {
		s.LatencyMin = 0
	}
	s.LinkBusy = make([]des.Time, len(nw.channels))
	for i := range nw.channels {
		s.LinkBusy[i] = nw.channels[i].busy
	}
	if p := nw.cfg.Progress; p != nil {
		p.publish(s.Duration, int64(s.Events), s.MessagesDelivered)
	}
	nw.obsCollect(&s)
	return s
}

// serTime returns the wire occupancy of size bytes at rate.
func serTime(size int64, rate float64) des.Time {
	return des.Time(float64(size) * float64(des.Second) / rate)
}

// kickHost tries to inject the source host's next packet.
func (nw *Network) kickHost(h *hostState) {
	ch := &nw.channels[h.up]
	now := nw.sched.Now()
	if ch.lastBit > now || ch.credits <= 0 {
		if nw.ob != nil && ch.credits <= 0 && h.nextIn < len(h.queue.items) {
			nw.obsHostStall(h, now)
		}
		return // retried on channel-free / credit-return events
	}
	if h.nextIn >= len(h.queue.items) {
		return
	}
	m := &nw.msgs[h.queue.items[h.nextIn]]
	if h.dependent && m.stage > h.readyStage {
		return // unblocked by advanceReady when dependencies land
	}
	if m.notBefore > now {
		if !m.timerSet {
			m.timerSet = true
			nw.sched.AtEvent(m.notBefore, evKick, h.id, 0, 0)
		}
		return
	}
	if !m.started {
		m.started = true
		m.startedAt = now
	}
	size := int64(nw.cfg.MTU)
	if rem := m.Bytes - int64(m.sentPkts)*int64(nw.cfg.MTU); rem < size {
		size = rem
	}
	pid := nw.allocPkt()
	p := &nw.pkts[pid]
	p.msg = int32(h.queue.items[h.nextIn])
	p.size = int32(size)
	p.seq = m.sentPkts
	p.hop = 0
	p.tailArrive = now
	p.pathOff, p.pathLen = m.pathOff, m.pathLen
	p.perPkt = nw.perPkt
	if p.perPkt {
		nw.walkBuf = nw.walkBuf[:0]
		err := nw.rt.Walk(m.Src, m.Dst, func(l topo.LinkID, up bool) {
			nw.walkBuf = append(nw.walkBuf, chanID(l, up))
		})
		if err != nil {
			nw.err = err
			return
		}
		p.ownPath = append(p.ownPath[:0], nw.walkBuf...)
	}
	if nw.ob != nil {
		nw.obsInject(h, p, m, now)
	}
	m.sentPkts++
	if m.sentPkts == m.packets {
		// Message fully handed to the NIC queue; the *next* message
		// may start once this packet's tail leaves the wire — handled
		// in the tail-departure event below.
		h.nextIn++
	}
	nw.transmit(pid, ch, -1)
}

// transmit sends packet pid over channel ch. fromBuf is the input
// channel id whose buffer currently holds the packet (-1 when injecting
// from a host). The caller guarantees ch is free and has a credit.
func (nw *Network) transmit(pid int32, ch *channel, fromBuf int32) {
	p := &nw.pkts[pid]
	now := nw.sched.Now()
	start := now
	if ch.lastBit > start {
		panic("netsim: transmit on busy channel")
	}
	tail := start + nw.ser(p.size, ch)
	// Cut-through cannot finish before the packet's bits arrived here.
	if p.tailArrive > tail {
		tail = p.tailArrive
	}
	ch.lastBit = tail
	ch.busy += tail - start
	ch.credits--
	if nw.ob != nil {
		nw.obsTransmit(p, ch, start, tail-start)
	}
	p.hop++
	headerAt := start + nw.cfg.LinkLatency
	if ch.toHost < 0 {
		headerAt += nw.cfg.SwitchLatency
		// Resolve the next hop once here so arbitration never walks the
		// message path again for this buffered packet.
		path := nw.pktPath(p)
		if int(p.hop) < len(path) {
			p.next = path[p.hop]
		} else {
			p.next = -1
		}
	} else {
		p.next = -1
	}
	tailArrive := tail + nw.cfg.LinkLatency
	switch {
	case ch.toHost >= 0 && nw.eager:
		// Last hop with nobody watching: deliver inline at the arrival
		// timestamp and account for the two skipped events.
		nw.elided += 2
		nw.deliverAt(pid, tailArrive)
	case ch.toHost < 0 && nw.ob == nil && nw.queueNow(ch, now, headerAt):
		// The header would land behind a packet still queued then, so
		// arriveHeader would only append: queue it now.
		p.tailArrive = tailArrive
		ch.buf.push(pid)
		nw.elided++
	default:
		if ch.toHost < 0 {
			ch.arriving++
		}
		nw.sched.AtEvent(headerAt, evArrive, pid, ch.id, int64(tailArrive))
	}
	nw.sched.AtEvent(tail, evDepart, pid, ch.id, int64(fromBuf))
}

// ser returns the wire time of a packet of size bytes on ch.
func (nw *Network) ser(size int32, ch *channel) des.Time {
	if int(size) == nw.cfg.MTU {
		return ch.serMTU
	}
	return serTime(int64(size), ch.rate)
}

// queueNow reports whether a packet sent on ch now, whose header lands
// at instant at, can be pushed onto ch's input buffer at once. With no
// arrival pending on ch the buffer holds every packet sent on ch
// before, in the order sent, so a push now keeps arrival order; a
// pending arrival would land behind it. With two or more packets queued
// the back is not the head, so it has not started to leave: its tail
// departs no earlier than now plus its wire time on its next channel.
// The test is strict so that the argument needs no tie-break: a
// departure at exactly at would be scheduled after this arrival and run
// after it anyway.
func (nw *Network) queueNow(ch *channel, now, at des.Time) bool {
	if ch.arriving > 0 || ch.buf.len() < 2 {
		return false
	}
	back := &nw.pkts[ch.buf.items[len(ch.buf.items)-1]]
	if back.next < 0 {
		return false
	}
	return now+nw.ser(back.size, &nw.channels[back.next]) > at
}

// arriveHeader lands the packet's header at ch's receiver.
func (nw *Network) arriveHeader(pid, chID int32, tailArrive des.Time) {
	p := &nw.pkts[pid]
	ch := &nw.channels[chID]
	p.tailArrive = tailArrive
	if nw.ob != nil {
		nw.obsHeadArrives(ch, nw.sched.Now())
	}
	if ch.toHost >= 0 {
		// Delivery completes when the tail arrives.
		nw.sched.AtEvent(tailArrive, evDeliver, pid, chID, 0)
		return
	}
	ch.arriving--
	ch.buf.push(pid)
	if nw.ob != nil {
		nw.ob.noteQueueDepth(ch)
	}
	if ch.buf.len() == 1 {
		nw.requestForward(ch)
	}
}

// requestForward queues ch's buffer head at its output channel and tries
// to arbitrate.
func (nw *Network) requestForward(in *channel) {
	if in.buf.len() == 0 || in.requested {
		return
	}
	p := &nw.pkts[in.buf.front()]
	if p.next < 0 {
		nw.err = fmt.Errorf("netsim: packet overran its path at node %d", in.to)
		return
	}
	out := &nw.channels[p.next]
	if out.reqs.len() == 0 && out.credits > 0 && out.lastBit <= nw.sched.Now() {
		// Uncontended: what tryForward would do after one push and pop.
		nw.transmit(in.buf.front(), out, in.id)
		return
	}
	in.requested = true
	out.reqs.push(in.id)
	nw.tryForward(out)
}

// tryForward arbitrates the output channel: FIFO over requesting inputs.
func (nw *Network) tryForward(out *channel) {
	now := nw.sched.Now()
	for out.lastBit <= now && out.credits > 0 && out.reqs.len() > 0 {
		in := &nw.channels[out.reqs.pop()]
		in.requested = false
		if in.buf.len() == 0 {
			continue // stale
		}
		pid := in.buf.front()
		p := &nw.pkts[pid]
		if p.next != out.id {
			// Stale request (head changed); requeue the real target.
			nw.requestForward(in)
			continue
		}
		nw.transmit(pid, out, in.id)
	}
	if nw.ob != nil && out.reqs.len() > 0 && out.credits <= 0 && out.lastBit <= now {
		nw.obsSwitchStall(out, now)
	}
}

// departTail runs when the packet's last bit leaves channel ch's
// transmitter.
func (nw *Network) departTail(pid, chID int32, fromBuf int32) {
	p := &nw.pkts[pid]
	ch := &nw.channels[chID]
	if fromBuf < 0 {
		// Left a host NIC: sender may proceed with its next message
		// ("sent to the wire"). The host comes from the channel, not
		// the packet: an eager final-hop delivery downstream may have
		// recycled this packet id for a different flow by the time the
		// tail departs, so p is only trustworthy in dependent mode, which
		// disables eager delivery and never recycles in-flight ids.
		h := &nw.hosts[ch.fromHost]
		if h.dependent {
			m := &nw.msgs[p.msg]
			if p.seq == m.packets-1 {
				h.sendLeft[m.stage]--
				nw.advanceReady(h)
			}
		}
		nw.kickHost(h)
		return
	}
	// Free the input-buffer slot, return the credit upstream and let the
	// new head arbitrate.
	fb := &nw.channels[fromBuf]
	if fb.buf.len() == 0 || fb.buf.front() != pid {
		nw.err = fmt.Errorf("netsim: buffer head mismatch on channel %d", fb.id)
		return
	}
	fb.buf.pop()
	fb.credits++
	nw.wakeTransmitter(fb)
	nw.requestForward(fb)
	// The channel is free at this instant: re-arbitrate.
	nw.wakeTransmitter(ch)
}

// wakeTransmitter re-arbitrates the sender feeding channel ch after the
// channel freed up or regained a credit.
func (nw *Network) wakeTransmitter(ch *channel) {
	if ch.fromHost >= 0 {
		nw.kickHost(&nw.hosts[ch.fromHost])
	} else {
		nw.tryForward(ch)
	}
}

// advanceReady moves the host's ready frontier over completed stages
// and re-kicks its injection queue.
func (nw *Network) advanceReady(h *hostState) {
	moved := false
	for int(h.readyStage) < len(h.sendLeft) && h.stageComplete(h.readyStage) {
		h.readyStage++
		moved = true
	}
	if moved {
		nw.kickHost(h)
	}
}

// deliverAt completes a packet at its destination host. at is the
// packet's tail-arrival instant: the current time in the event path,
// a (deterministic) future instant on the eager path.
func (nw *Network) deliverAt(pid int32, at des.Time) {
	if at > nw.endAt {
		nw.endAt = at
	}
	p := &nw.pkts[pid]
	m := &nw.msgs[p.msg]
	if p.seq != m.recvPkts {
		nw.stats.OutOfOrderPackets++
		if nw.ob != nil {
			nw.ob.outOfOrder.Inc()
		}
	}
	m.recvPkts++
	nw.stats.BytesDelivered += int64(p.size)
	if nw.ob != nil {
		nw.obsDeliverPacket(p)
	}
	if m.recvPkts == m.packets {
		nw.stats.MessagesDelivered++
		nw.remaining--
		dh := &nw.hosts[m.Dst]
		if dh.dependent {
			dh.recvLeft[m.stage]--
			nw.advanceReady(dh)
		}
		lat := at - m.startedAt
		if nw.ob != nil {
			nw.obsDeliverMessage(m, lat, at)
		}
		nw.stats.LatencySum += lat
		if lat < nw.stats.LatencyMin {
			nw.stats.LatencyMin = lat
		}
		if lat > nw.stats.LatencyMax {
			nw.stats.LatencyMax = lat
		}
	}
	nw.freePkts = append(nw.freePkts, pid)
}

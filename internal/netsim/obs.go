package netsim

// Observability bridge: when any of Config.Metrics / Probes / Trace is
// set, the simulator mirrors its hot-path bookkeeping into the obs
// layer — counters and histograms into the registry, time-series probes
// onto the sampler, and message/packet lifecycle events onto the Chrome
// trace-event tracer. With all three nil, nw.ob stays nil and the hot
// path pays a single pointer check per instrumentation site.
//
// Everything here runs on the simulation goroutine. Registry metrics and
// the tracer stay safe to read from another goroutine mid-run
// (TestProbeSnapshotWhileRunning), which is what their atomics and
// mutex are for.
//
// docs/OBSERVABILITY.md documents every metric name, probe series and
// trace lane emitted here.

import (
	"fmt"

	"fattree/internal/des"
	"fattree/internal/obs"
	"fattree/internal/schema"
)

// Trace lane groups (Chrome trace-event pids).
const (
	tracePidMetrics = 0 // counter tracks (event queue depth, link util)
	tracePidHosts   = 1 // one lane per end-port: inject/deliver/msg spans
	tracePidLinks   = 2 // one lane per directed channel: packet spans
	tracePidStages  = 3 // collective phase markers (barrier mode)
)

// DefaultLatencyBucketsUS is the fixed bucket layout of the
// netsim_message_latency_us histogram, in microseconds.
var DefaultLatencyBucketsUS = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// simObs is the per-run observability state.
type simObs struct {
	reg    *obs.Registry
	trace  *obs.Tracer
	probes *obs.Sampler

	// queueHW tracks each channel's input-buffer depth high-water mark,
	// updated at every buffer push.
	queueHW []int32

	pktInjected    *obs.Counter
	pktTx          *obs.Counter
	msgDelivered   *obs.Counter
	bytesDelivered *obs.Counter
	outOfOrder     *obs.Counter
	hostStalls     *obs.Counter
	switchStalls   *obs.Counter
	msgLatencyUS   *obs.Histogram
}

// newSimObs builds the observability state for a run, or returns nil
// when the Config enables nothing.
func (nw *Network) newSimObs() *simObs {
	cfg := &nw.cfg
	if cfg.Metrics == nil && cfg.Probes == nil && cfg.Trace == nil {
		return nil
	}
	reg := cfg.Metrics
	if reg == nil {
		// Probe series read the stall counters; keep them live in a
		// private registry when the caller only wants probes/traces.
		reg = obs.NewRegistry()
	}
	ob := &simObs{
		reg:            reg,
		trace:          cfg.Trace,
		probes:         cfg.Probes,
		queueHW:        make([]int32, len(nw.channels)),
		pktInjected:    reg.Counter("netsim_packets_injected_total"),
		pktTx:          reg.Counter("netsim_packets_tx_total"),
		msgDelivered:   reg.Counter("netsim_messages_delivered_total"),
		bytesDelivered: reg.Counter("netsim_bytes_delivered_total"),
		outOfOrder:     reg.Counter("netsim_out_of_order_packets_total"),
		hostStalls:     reg.Counter("netsim_host_credit_stalls_total"),
		switchStalls:   reg.Counter("netsim_switch_credit_stalls_total"),
		msgLatencyUS:   reg.MustHistogram("netsim_message_latency_us", DefaultLatencyBucketsUS),
	}
	nw.emitTraceMeta(ob)
	return ob
}

// emitTraceMeta labels the trace lanes once per Network lifetime.
func (nw *Network) emitTraceMeta(ob *simObs) {
	if ob.trace == nil || nw.traceMetaDone {
		return
	}
	nw.traceMetaDone = true
	tr := ob.trace
	tr.ProcessName(tracePidMetrics, "metrics")
	tr.ProcessName(tracePidHosts, "hosts")
	tr.ProcessName(tracePidLinks, "links")
	label := nw.cfg.TraceLabel
	if label == "" {
		label = "collective"
	}
	tr.ProcessName(tracePidStages, label)
	for i := range nw.channels {
		ch := &nw.channels[i]
		dir := "up"
		if ch.id%2 == 1 {
			dir = "down"
		}
		tr.ThreadName(tracePidLinks, int(ch.id),
			fmt.Sprintf("ch%d %s n%d>n%d", ch.id, dir, ch.from, ch.to))
	}
}

// startProbes registers the simulator's time series on the sampler and
// arms it on the current scheduler. Called once per Run (and per
// barrier stage, since each stage drains the event queue).
func (nw *Network) startProbes() {
	ob := nw.ob
	if ob == nil || ob.probes == nil {
		return
	}
	s := ob.probes
	s.Reset()
	// Baseline the utilization delta at the current instant so a
	// mid-run (re)start — a new barrier stage — doesn't attribute all
	// historical busy time to its first sample.
	prevBusy := make([]des.Time, len(nw.channels))
	for i := range nw.channels {
		prevBusy[i] = nw.channels[i].busy
	}
	prevT := nw.sched.Now()
	s.Series("link_util", func(now des.Time, buf []float64) []float64 {
		dt := now - prevT
		maxU := 0.0
		for i := range nw.channels {
			busy := nw.channels[i].busy
			u := 0.0
			if dt > 0 {
				u = float64(busy-prevBusy[i]) / float64(dt)
			}
			prevBusy[i] = busy
			if u > maxU {
				maxU = u
			}
			buf = append(buf, u)
		}
		prevT = now
		if ob.trace != nil {
			ob.trace.Counter(tracePidMetrics, now, "max_link_util",
				obs.Num("util", maxU))
		}
		return buf
	})
	s.Series("buffer_pkts", func(now des.Time, buf []float64) []float64 {
		total := 0
		for i := range nw.channels {
			n := nw.channels[i].buf.len()
			total += n
			buf = append(buf, float64(n))
		}
		if ob.trace != nil {
			ob.trace.Counter(tracePidMetrics, now, "buffered_pkts",
				obs.Num("pkts", float64(total)))
		}
		return buf
	})
	s.Series("credit_stalls", func(now des.Time, buf []float64) []float64 {
		return append(buf,
			float64(ob.hostStalls.Value()),
			float64(ob.switchStalls.Value()))
	})
	s.Series("event_queue", func(now des.Time, buf []float64) []float64 {
		pend := nw.sched.Pending()
		if ob.trace != nil {
			ob.trace.Counter(tracePidMetrics, now, "event_queue",
				obs.Num("pending", float64(pend)))
		}
		return append(buf, float64(pend))
	})
	s.Start(nw.sched)
}

// noteQueueDepth tracks ch's input-buffer high-water mark after a push.
func (ob *simObs) noteQueueDepth(ch *channel) {
	if d := int32(ch.buf.len()); d > ob.queueHW[ch.id] {
		ob.queueHW[ch.id] = d
	}
}

// startSamplers arms every sampled stream for the run (or barrier
// stage): the -metrics probes and the live progress tick. Each is
// independently nil-guarded.
func (nw *Network) startSamplers() {
	nw.startProbes()
	nw.startProgress()
}

// obsFinalSample captures one last probe sample at the end of a run or
// stage — the scheduler discards daemon ticks queued past the final
// event, so the end state needs an explicit sample.
func (nw *Network) obsFinalSample() {
	if nw.ob != nil && nw.ob.probes != nil {
		nw.ob.probes.Sample(nw.sched.Now())
	}
}

// obsInject records a packet entering the fabric at its source host.
func (nw *Network) obsInject(h *hostState, p *packet, m *message, now des.Time) {
	ob := nw.ob
	ob.pktInjected.Inc()
	if ob.trace != nil {
		ob.trace.Instant(tracePidHosts, int(h.id), now, "inject",
			obs.Str("msg", fmt.Sprintf("%d>%d", m.Src, m.Dst)),
			obs.Num("seq", float64(p.seq)))
	}
}

// obsTransmit records one channel transmission as a span on the link's
// trace lane.
func (nw *Network) obsTransmit(p *packet, ch *channel, start, dur des.Time) {
	ob := nw.ob
	ob.pktTx.Inc()
	if ob.trace != nil {
		m := &nw.msgs[p.msg]
		ob.trace.Complete(tracePidLinks, int(ch.id), start, dur,
			fmt.Sprintf("pkt %d>%d #%d", m.Src, m.Dst, p.seq),
			obs.Num("bytes", float64(p.size)),
			obs.Num("hop", float64(p.hop)))
	}
}

// obsHeadArrives records a packet header landing at a receiver.
func (nw *Network) obsHeadArrives(ch *channel, now des.Time) {
	if tr := nw.ob.trace; tr != nil {
		tr.Instant(tracePidLinks, int(ch.id), now, "head-arrives")
	}
}

// obsHostStall records an injection attempt blocked on credits.
func (nw *Network) obsHostStall(h *hostState, now des.Time) {
	ob := nw.ob
	ob.hostStalls.Inc()
	if ob.trace != nil {
		ob.trace.Instant(tracePidHosts, int(h.id), now, "blocked-on-credit")
	}
}

// obsSwitchStall records an output channel with waiting inputs but no
// downstream credit.
func (nw *Network) obsSwitchStall(out *channel, now des.Time) {
	ob := nw.ob
	ob.switchStalls.Inc()
	if ob.trace != nil {
		ob.trace.Instant(tracePidLinks, int(out.id), now, "blocked-on-credit")
	}
}

// obsDeliverPacket records payload arrival at the destination host.
func (nw *Network) obsDeliverPacket(p *packet) {
	nw.ob.bytesDelivered.Add(int64(p.size))
}

// obsDeliverMessage records a completed message: latency histogram plus
// a span on the destination host's trace lane.
func (nw *Network) obsDeliverMessage(m *message, lat, now des.Time) {
	ob := nw.ob
	ob.msgDelivered.Inc()
	ob.msgLatencyUS.Observe(float64(lat) / float64(des.Microsecond))
	if ob.trace != nil {
		ob.trace.Complete(tracePidHosts, m.Dst, m.startedAt, lat,
			fmt.Sprintf("msg %d>%d", m.Src, m.Dst),
			obs.Num("bytes", float64(m.Bytes)))
		ob.trace.Instant(tracePidHosts, m.Dst, now, "deliver",
			obs.Str("msg", fmt.Sprintf("%d>%d", m.Src, m.Dst)))
	}
}

// obsStage marks one barrier stage's span on the collective lane.
func (nw *Network) obsStage(i, msgs int, start, end des.Time) {
	if nw.ob == nil || nw.ob.trace == nil {
		return
	}
	nw.ob.trace.Complete(tracePidStages, 0, start, end-start,
		fmt.Sprintf("stage %d", i),
		obs.Num("messages", float64(msgs)))
}

// obsCollect freezes end-of-run gauges into the registry — the run's
// results plus the event loop's own telemetry: wall-clock busy time and
// the calendar queue's pressure counters — and appends the per-link
// rollup to the probe stream.
func (nw *Network) obsCollect(s *Stats) {
	ob := nw.ob
	if ob == nil {
		return
	}
	sched := nw.sched
	ob.reg.Gauge("netsim_event_queue_high_water").Max(int64(sched.MaxPending()))
	ob.reg.Gauge("netsim_events_executed").Set(int64(s.Events))
	ob.reg.Gauge("netsim_duration_ps").Set(int64(s.Duration))
	ob.reg.Gauge("netsim_busy_ns").Set(nw.busyNS)
	ob.reg.Gauge("netsim_calendar_rebases").Set(int64(sched.Rebases()))
	ob.reg.Gauge("netsim_calendar_overflow_peak").Max(int64(sched.OverflowHighWater()))
	ob.reg.Gauge("netsim_calendar_slots_peak").Max(int64(sched.OccupiedSlotsHighWater()))
	var maxQ int32
	for _, d := range ob.queueHW {
		if d > maxQ {
			maxQ = d
		}
	}
	ob.reg.Gauge("netsim_link_max_queue_depth").Max(int64(maxQ))
	if ob.probes != nil {
		roll := schema.LinkRollup{
			Rollup:     schema.RollupLinks,
			DurationPS: int64(s.Duration),
			MaxQueue:   append([]int32(nil), ob.queueHW...),
			BusyFrac:   make([]float64, len(s.LinkBusy)),
		}
		if s.Duration > 0 {
			for i, b := range s.LinkBusy {
				roll.BusyFrac[i] = float64(b) / float64(s.Duration)
			}
		}
		ob.probes.Record(roll)
	}
}

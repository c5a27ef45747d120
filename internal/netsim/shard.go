package netsim

// Conservative parallel DES, sharded by fat-tree sub-tree.
//
// The node set is partitioned into S shards: each leaf switch and its
// attached hosts form an indivisible sub-tree (so host injection and
// leaf-local delivery never cross a partition), leaf sub-trees are
// assigned to shards in contiguous blocks, and non-leaf switches are
// spread round-robin. Every shard runs the ordinary sequential event
// loop on its own scheduler over the nodes it owns.
//
// Correctness rests on lookahead: every cross-shard interaction rides a
// wire, so it reaches the neighbor no earlier than LinkLatency (L) after
// it was caused. The coordinator therefore repeats windows: compute
// M = min over shards of the earliest queued event, let every shard run
// all events in [M, M+L) in parallel, then exchange the cross-shard
// events produced (all stamped >= M+L by construction) through
// per-shard-pair mailboxes at the barrier. Mailbox drain order is
// sorted by (time, sender shard, send order), so the merged execution
// order — and with it every result — is deterministic for a given
// shard count.
//
// State ownership follows the partition. A channel's transmitter half
// (lastBit, busy, credits, reqs, requested) belongs to the shard of its
// from-node; the receiver input buffer belongs to the shard of its
// to-node. Packets never travel between shards as shared objects: a
// cross-shard hop copies the packet's fields into the mailbox entry and
// frees the sender-side packet, and the receiver materializes a fresh
// one from its own pool, so each shard's packet arena is strictly
// shard-private. Credit returns crossing a partition are delayed by L
// (they ride the reverse wire), which is exactly why sharded runs are
// bit-exact with the sequential loop only when no transmitter ever
// exhausts its credit budget — see docs/SIMULATOR.md.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fattree/internal/des"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// xEvent is one cross-shard event in flight: the POD payload of a
// scheduler event plus the packet fields a cross-shard arrival carries.
type xEvent struct {
	at         des.Time
	tailArrive des.Time
	kind       uint16
	ch         int32
	msg        int32
	seq        int32
	size       int32
	hop        int32
}

// shardRuntime is the coordinator state of a sharded run, kept on the
// root Network and reused across runs.
type shardRuntime struct {
	n         int
	lookahead des.Time
	nodeShard []int32 // node id -> owning shard

	// workers[i] is shard i's Network view: shared topology/channel/
	// host/message arenas, private scheduler, packet pool and stats.
	workers []*Network

	// mailbox[sender][receiver] accumulates cross-shard events during a
	// window; only the sender's goroutine appends, and only the
	// coordinator drains at the barrier.
	mailbox [][][]xEvent

	// inbox is the coordinator's scratch for sorting one receiver's
	// incoming events at the barrier.
	inbox []xEvent

	start []chan des.Time
	done  chan struct{}
	wg    sync.WaitGroup

	// Telemetry (reset per run): mailboxPeak[r] is the largest batch of
	// cross-shard events shard r received at one barrier (coordinator
	// only); windowWallNS accumulates the coordinator's wall-clock time
	// inside the window loop, so a shard's barrier stall is
	// approximately windowWallNS minus its own busy time.
	mailboxPeak  []int
	windowWallNS int64
}

// shardID and auxEvents live on Network (one per shard view):
// shardID is the shard a worker Network acts as; auxEvents counts
// events that exist only because of sharding (cross-partition credit
// returns), so merged event counts stay comparable to sequential runs.

// partitionNodes assigns every node to a shard: leaf sub-trees in
// contiguous blocks, upper switches round-robin.
func partitionNodes(t *topo.Topology, shards int) []int32 {
	ns := make([]int32, len(t.Nodes))
	if shards <= 1 || len(t.ByLevel) < 2 {
		return ns
	}
	leaves := t.ByLevel[1]
	for li, id := range leaves {
		ns[id] = int32(li * shards / len(leaves))
	}
	for j := 0; j < t.NumHosts(); j++ {
		h := t.Host(j)
		up := t.Ports[h.Up[0]]
		leaf := t.Ports[t.Links[up.Link].Upper].Node
		ns[h.ID] = ns[leaf]
	}
	for l := 2; l < len(t.ByLevel); l++ {
		for i, id := range t.ByLevel[l] {
			ns[id] = int32(i % shards)
		}
	}
	return ns
}

// setupShards (re)builds the shard runtime for the current config and
// prepares it for a fresh run. Called after reset().
func (nw *Network) setupShards() {
	S := nw.cfg.shardCount()
	if nw.sh == nil || nw.sh.n != S {
		sh := &shardRuntime{
			n:           S,
			nodeShard:   partitionNodes(nw.t, S),
			mailbox:     make([][][]xEvent, S),
			start:       make([]chan des.Time, S),
			done:        make(chan struct{}, S),
			mailboxPeak: make([]int, S),
		}
		for i := 0; i < S; i++ {
			sh.mailbox[i] = make([][]xEvent, S)
			sh.start[i] = make(chan des.Time, 1)
			w := &Network{t: nw.t, rt: nw.rt, cfg: nw.cfg, shardID: int32(i), sh: sh}
			w.sched = des.NewScheduler()
			w.sched.SetHandler(w.handle)
			sh.workers = append(sh.workers, w)
		}
		nw.sh = sh
	}
	sh := nw.sh
	sh.lookahead = nw.cfg.LinkLatency
	sh.windowWallNS = 0
	for i := range sh.workers {
		sh.mailboxPeak[i] = 0
		w := sh.workers[i]
		w.sched.Reset()
		w.stats = Stats{LatencyMin: 1 << 62}
		w.err = nil
		w.auxEvents = 0
		w.elided = 0
		w.endAt = 0
		w.busyNS = 0
		w.pkts = w.pkts[:0]
		w.freePkts = w.freePkts[:0]
		w.flowRecs = w.flowRecs[:0]
		w.flowSink = nw.flow != nil
		w.ob = nw.ob
		for j := range sh.mailbox[i] {
			sh.mailbox[i][j] = sh.mailbox[i][j][:0]
		}
	}
	for i := range nw.channels {
		nw.channels[i].shard = sh.nodeShard[nw.channels[i].from]
	}
	nw.refreshShardViews()
}

// refreshShardViews re-points every worker at the root's shared arenas;
// called after each load, since appends may have moved the backing
// arrays. It also propagates the run's eager-delivery mode, which
// loadDependent may have cleared on the root.
func (nw *Network) refreshShardViews() {
	for _, w := range nw.sh.workers {
		w.channels = nw.channels
		w.hosts = nw.hosts
		w.msgs = nw.msgs
		w.paths = nw.paths
		w.eager = nw.eager
	}
}

// schedule routes a cross-shard-capable event: local ones go straight
// onto this shard's queue, remote ones into the mailbox for the
// barrier exchange. Only called from a worker's own goroutine (or the
// coordinator between windows).
func (sh *shardRuntime) scheduleFrom(w *Network, shard int32, at des.Time, kind uint16, a, b int32, c int64) {
	if shard == w.shardID {
		w.sched.AtEvent(at, kind, a, b, c)
		return
	}
	xe := xEvent{at: at, kind: kind, ch: b}
	switch kind {
	case evArrive:
		p := &w.pkts[a]
		xe.msg = p.msg
		xe.seq = p.seq
		xe.size = p.size
		xe.hop = p.hop
		xe.tailArrive = des.Time(c)
	case evCreditX:
		xe.ch = a
	default:
		panic(fmt.Sprintf("netsim: unexpected cross-shard event kind %d", kind))
	}
	sh.mailbox[w.shardID][shard] = append(sh.mailbox[w.shardID][shard], xe)
}

// deliverMailboxes drains every mailbox into the receiving shards'
// schedulers, in deterministic (time, sender, send-order) order.
func (sh *shardRuntime) deliverMailboxes() {
	for r := 0; r < sh.n; r++ {
		in := sh.inbox[:0]
		for s := 0; s < sh.n; s++ {
			in = append(in, sh.mailbox[s][r]...)
			sh.mailbox[s][r] = sh.mailbox[s][r][:0]
		}
		sh.inbox = in
		if len(in) == 0 {
			continue
		}
		if len(in) > sh.mailboxPeak[r] {
			sh.mailboxPeak[r] = len(in)
		}
		sort.SliceStable(in, func(i, j int) bool { return in[i].at < in[j].at })
		w := sh.workers[r]
		for i := range in {
			xe := &in[i]
			switch xe.kind {
			case evArrive:
				pid := w.allocPkt()
				p := &w.pkts[pid]
				p.msg = xe.msg
				p.seq = xe.seq
				p.size = xe.size
				p.hop = xe.hop
				p.perPkt = false
				m := &w.msgs[xe.msg]
				p.pathOff, p.pathLen = m.pathOff, m.pathLen
				path := w.msgPath(m)
				if int(xe.hop) < len(path) {
					p.next = path[xe.hop]
				} else {
					p.next = -1
				}
				w.sched.AtEvent(xe.at, evArrive, pid, xe.ch, int64(xe.tailArrive))
			case evCreditX:
				w.sched.AtEvent(xe.at, evCreditX, xe.ch, 0, 0)
			}
		}
	}
}

// pending sums queued regular events across shards.
func (sh *shardRuntime) pending() int {
	n := 0
	for _, w := range sh.workers {
		n += w.sched.Pending()
	}
	return n
}

// maxPending returns the largest per-shard queue high-water mark.
func (sh *shardRuntime) maxPending() int {
	m := 0
	for _, w := range sh.workers {
		if p := w.sched.MaxPending(); p > m {
			m = p
		}
	}
	return m
}

// maxNow returns the latest shard clock — the global simulation time at
// a barrier.
func (sh *shardRuntime) maxNow() des.Time {
	var m des.Time
	for _, w := range sh.workers {
		if t := w.sched.Now(); t > m {
			m = t
		}
	}
	return m
}

// executed returns total events run minus sharding-only aux events plus
// eagerly elided deliveries, so the count matches what the sequential
// loop would report.
func (sh *shardRuntime) executed() uint64 {
	var n uint64
	for _, w := range sh.workers {
		n += w.sched.Executed() - w.auxEvents + w.elided
	}
	return n
}

// telemetry snapshots per-shard DES telemetry after a run: executed
// events, queue and mailbox high-water marks, wall-clock busy/stall
// split, and the calendar-queue pressure counters. Called with all
// workers stopped.
func (sh *shardRuntime) telemetry() []schema.ShardStats {
	out := make([]schema.ShardStats, sh.n)
	for i, w := range sh.workers {
		stall := sh.windowWallNS - w.busyNS
		if stall < 0 {
			stall = 0
		}
		out[i] = schema.ShardStats{
			Shard:           i,
			Events:          w.sched.Executed() - w.auxEvents + w.elided,
			MaxPending:      w.sched.MaxPending(),
			MailboxPeak:     sh.mailboxPeak[i],
			BusyNS:          w.busyNS,
			StallNS:         stall,
			CalRebases:      w.sched.Rebases(),
			CalOverflowPeak: w.sched.OverflowHighWater(),
			CalSlotsPeak:    w.sched.OccupiedSlotsHighWater(),
		}
	}
	return out
}

// endTime returns the global end-of-run instant: the latest shard clock
// or eager delivery, whichever is later.
func (sh *shardRuntime) endTime() des.Time {
	m := sh.maxNow()
	for _, w := range sh.workers {
		if w.endAt > m {
			m = w.endAt
		}
	}
	return m
}

// startWorkers launches one goroutine per shard; each waits for a
// window bound, runs its local events strictly before it, and signals
// the barrier.
func (sh *shardRuntime) startWorkers() {
	for i := range sh.workers {
		w := sh.workers[i]
		ch := sh.start[i]
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for bound := range ch {
				t0 := time.Now()
				w.runWindow(bound)
				w.busyNS += time.Since(t0).Nanoseconds()
				sh.done <- struct{}{}
			}
		}()
	}
}

// runWindow executes this shard's events in [now, bound).
func (w *Network) runWindow(bound des.Time) {
	defer func() {
		if r := recover(); r != nil && w.err == nil {
			w.err = fmt.Errorf("netsim: shard %d: panic: %v", w.shardID, r)
		}
	}()
	w.sched.RunBefore(bound)
}

// stopWorkers tears the worker pool down at the end of a run.
func (sh *shardRuntime) stopWorkers() {
	for _, ch := range sh.start {
		close(ch)
	}
	sh.wg.Wait()
	// Fresh channels for the next run.
	for i := range sh.start {
		sh.start[i] = make(chan des.Time, 1)
	}
}

// pumpShards repeats conservative windows until every shard is idle.
// stage is used only for error messages (-1 for async runs).
func (nw *Network) pumpShards(stage int) error {
	sh := nw.sh
	t0 := time.Now()
	defer func() { sh.windowWallNS += time.Since(t0).Nanoseconds() }()
	var lastSample, lastLink des.Time
	probed := nw.ob != nil && nw.ob.probes != nil
	linked := nw.ob != nil && nw.ob.link != nil
	for {
		sh.deliverMailboxes()
		var min des.Time
		ok := false
		for _, w := range sh.workers {
			if t, has := w.sched.NextAt(); has && (!ok || t < min) {
				min, ok = t, true
			}
		}
		if !ok {
			return nil
		}
		bound := min + sh.lookahead
		for i := range sh.workers {
			sh.start[i] <- bound
		}
		for range sh.workers {
			<-sh.done
		}
		for _, w := range sh.workers {
			if w.err != nil {
				return w.err
			}
		}
		if nw.cfg.MaxEvents > 0 && sh.executed() > nw.cfg.MaxEvents {
			if stage >= 0 {
				return fmt.Errorf("netsim: stage %d exceeded %d events", stage, nw.cfg.MaxEvents)
			}
			return fmt.Errorf("netsim: exceeded %d events", nw.cfg.MaxEvents)
		}
		if probed {
			if iv := nw.ob.probes.Interval(); iv > 0 && bound-lastSample >= iv {
				nw.ob.probes.Sample(sh.maxNow())
				lastSample = bound
			}
		}
		if linked {
			if iv := nw.ob.link.Interval(); iv > 0 && bound-lastLink >= iv {
				nw.ob.link.Sample(sh.maxNow())
				lastLink = bound
			}
		}
		if p := nw.cfg.Progress; p != nil {
			// Workers are parked at the barrier (the done receives above
			// order their writes before these reads), so per-shard stats
			// are safe to sum here.
			var delivered int64
			for _, w := range sh.workers {
				delivered += w.stats.MessagesDelivered
			}
			p.publish(sh.maxNow(), int64(sh.executed()), delivered)
		}
	}
}

// kickAllHosts runs the injection attempt for every host on its owning
// shard's view. Coordinator-only (all shards quiesced).
func (nw *Network) kickAllHosts() {
	sh := nw.sh
	for j := range nw.hosts {
		w := sh.workers[sh.nodeShard[nw.t.HostID(j)]]
		w.kickHost(&nw.hosts[j])
	}
}

// alignClocks advances every shard clock (and the coordinator's) to t.
func (nw *Network) alignClocks(t des.Time) {
	for _, w := range nw.sh.workers {
		w.sched.AdvanceTo(t)
	}
	nw.sched.AdvanceTo(t)
}

// flowRec is one buffered flow-completion record of a sharded run;
// records are merged and written deterministically at run end.
type flowRec struct {
	src, dst   int
	bytes      int64
	start, end des.Time
	lat        des.Time
}

// mergeShardResults folds per-shard stats into the root Network and
// writes the merged flow log. delivered reports total completed
// messages.
func (nw *Network) mergeShardResults() (delivered int64) {
	sh := nw.sh
	var recs []flowRec
	for _, w := range sh.workers {
		ws := &w.stats
		nw.stats.BytesDelivered += ws.BytesDelivered
		nw.stats.MessagesDelivered += ws.MessagesDelivered
		nw.stats.LatencySum += ws.LatencySum
		nw.stats.OutOfOrderPackets += ws.OutOfOrderPackets
		if ws.MessagesDelivered > 0 {
			if ws.LatencyMin < nw.stats.LatencyMin {
				nw.stats.LatencyMin = ws.LatencyMin
			}
			if ws.LatencyMax > nw.stats.LatencyMax {
				nw.stats.LatencyMax = ws.LatencyMax
			}
		}
		nw.stats.Latencies = append(nw.stats.Latencies, ws.Latencies...)
		ws.Latencies = ws.Latencies[:0]
		recs = append(recs, w.flowRecs...)
		delivered += ws.MessagesDelivered
	}
	if nw.flow != nil && len(recs) > 0 {
		sort.Slice(recs, func(i, j int) bool {
			a, b := &recs[i], &recs[j]
			if a.end != b.end {
				return a.end < b.end
			}
			if a.start != b.start {
				return a.start < b.start
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.dst < b.dst
		})
		for i := range recs {
			nw.writeFlowRec(&recs[i])
		}
	}
	return delivered
}

// runShardedAsync is the sharded form of Run (msgs != nil) and
// RunDependent (depStages != nil).
func (nw *Network) runShardedAsync(msgs []Message, depStages [][]Message) (Stats, error) {
	nw.reset()
	nw.setupShards()
	var err error
	if depStages != nil {
		err = nw.loadDependent(depStages)
	} else {
		err = nw.load(msgs)
	}
	if err != nil {
		return Stats{}, nw.flushed(err)
	}
	nw.refreshShardViews()
	nw.startSamplers()
	sh := nw.sh
	sh.startWorkers()
	nw.kickAllHosts()
	perr := nw.pumpShards(-1)
	sh.stopWorkers()
	if perr != nil {
		return Stats{}, nw.flushed(perr)
	}
	nw.alignClocks(sh.endTime())
	delivered := nw.mergeShardResults()
	if rem := int64(nw.remaining) - delivered; rem != 0 {
		return Stats{}, nw.flushed(fmt.Errorf("netsim: deadlock with %d messages undelivered", rem))
	}
	nw.obsFinalSample()
	st := nw.collect()
	st.Events = sh.executed()
	return st, nw.flushed(nil)
}

// runShardedStages is the sharded form of RunStages/RunStagesJitter.
func (nw *Network) runShardedStages(stages [][]Message, jitter des.Time, seed int64) (Stats, error) {
	nw.reset()
	nw.setupShards()
	rng := rand.New(rand.NewSource(seed))
	sh := nw.sh
	sh.startWorkers()
	var durs []des.Time
	var last des.Time
	var deliveredBefore int64
	loaded := 0
	for i, st := range stages {
		if err := nw.load(st); err != nil {
			sh.stopWorkers()
			return Stats{}, nw.flushed(err)
		}
		loaded += len(st)
		nw.refreshShardViews()
		if jitter > 0 {
			nw.applyJitter(st, jitter, rng)
		}
		nw.kickAllHosts()
		nw.startSamplers()
		if err := nw.pumpShards(i); err != nil {
			sh.stopWorkers()
			return Stats{}, nw.flushed(err)
		}
		var delivered int64
		for _, w := range sh.workers {
			delivered += w.stats.MessagesDelivered
		}
		if delivered-deliveredBefore != int64(len(st)) {
			sh.stopWorkers()
			return Stats{}, nw.flushed(fmt.Errorf(
				"netsim: stage %d deadlocked with %d messages undelivered",
				i, int64(len(st))-(delivered-deliveredBefore)))
		}
		deliveredBefore = delivered
		end := sh.endTime()
		nw.alignClocks(end)
		nw.obsFinalSample()
		durs = append(durs, end-last)
		nw.obsStage(i, len(st), last, end)
		last = end
	}
	sh.stopWorkers()
	nw.mergeShardResults()
	st := nw.collect()
	st.Events = sh.executed()
	st.StageDurations = durs
	return st, nw.flushed(nil)
}

// writeFlowRec appends one merged flow record to the buffered CSV.
func (nw *Network) writeFlowRec(r *flowRec) {
	var m message
	m.Src, m.Dst, m.Bytes = r.src, r.dst, r.bytes
	m.startedAt = r.start
	nw.writeFlowRecord(&m, r.end, r.lat)
}

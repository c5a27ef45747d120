package fmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fattree/internal/sched"
	"fattree/internal/schema"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// scriptClock is the event loop's clock under test control: time stands
// still until the test moves it, and the loop's one timer fires when the
// test moves time onto it. The loop arms the timer as the last thing it
// does before it waits again, so an Arm call tells the test that
// everything the loop was going to do about what it has seen is done.
type scriptClock struct {
	mu    sync.Mutex
	now   time.Time
	at    time.Time      // the armed tick; zero when disarmed
	arms  int            // Arm calls so far
	seen  int            // input events in the journal at the last Arm
	c     chan time.Time // the one possibly pending tick
	armed chan struct{}  // poked by every Arm
	m     *Manager
}

func (c *scriptClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *scriptClock) C() <-chan time.Time { return c.c }

func (c *scriptClock) Arm(t time.Time) {
	seen := 0
	recs, _ := c.m.journal.Snapshot(0)
	for _, r := range recs {
		switch r.Kind {
		case schema.EvFault, schema.EvRevive, schema.EvFaultRandom, schema.EvAlloc, schema.EvFree:
			seen++
		}
	}
	c.mu.Lock()
	select {
	case <-c.c: // a tick the loop never read is replaced, like a stopped timer's
	default:
	}
	c.at, c.seen = t, seen
	if !t.IsZero() && !t.After(c.now) {
		c.at = time.Time{}
		c.c <- c.now
	}
	c.arms++
	c.mu.Unlock()
	select {
	case c.armed <- struct{}{}:
	default:
	}
}

// set moves time without firing anything: for code that runs inside the
// loop, where a build is taking its time.
func (c *scriptClock) set(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// loopRig is a manager on a scriptClock, with every build and swap
// recorded against scripted time.
type loopRig struct {
	t     *testing.T
	m     *Manager
	clk   *scriptClock
	t0    time.Time
	sent  int // events enqueued so far
	mu    sync.Mutex
	built []time.Duration // when each rebuild's validate call ran, from t0
	swaps []swapAt        // every snapshot announced after the initial one
}

type swapAt struct {
	st *FabricState
	at time.Duration
}

func newLoopRig(t *testing.T, spec string, mutate func(*Config)) *loopRig {
	t.Helper()
	r := &loopRig{t: t, t0: time.Unix(1_000_000, 0)}
	r.m = newManager(t, spec, mutate)
	r.clk = &scriptClock{now: r.t0, c: make(chan time.Time, 1), armed: make(chan struct{}, 1), m: r.m}
	r.m.clk = r.clk
	inner := r.m.validate
	r.m.validate = func(tb *fabricTables) error {
		r.mu.Lock()
		r.built = append(r.built, r.clk.Now().Sub(r.t0))
		r.mu.Unlock()
		return inner(tb)
	}
	r.m.OnSwap = func(st *FabricState) {
		if st.Epoch > 1 {
			r.mu.Lock()
			r.swaps = append(r.swaps, swapAt{st, r.clk.Now().Sub(r.t0)})
			r.mu.Unlock()
		}
	}
	return r
}

// wait blocks until cond holds at an Arm call.
func (r *loopRig) wait(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		r.clk.mu.Lock()
		ok := cond()
		r.clk.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-r.clk.armed:
		case <-deadline:
			r.t.Fatalf("event loop never got to %s", what)
		}
	}
}

// settle waits until the loop has dealt with every event sent so far.
func (r *loopRig) settle() {
	r.t.Helper()
	r.wait(fmt.Sprintf("event %d", r.sent), func() bool { return r.clk.seen >= r.sent })
}

func (r *loopRig) inject(fail, revive []topo.LinkID) {
	r.t.Helper()
	n, err := r.m.InjectFaults(fail, revive, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	r.sent += n
	r.settle()
}

// advance moves time forward by d, stopping at every tick the loop has
// armed on the way and letting the loop finish with it.
func (r *loopRig) advance(d time.Duration) {
	r.t.Helper()
	c := r.clk
	c.mu.Lock()
	target := c.now.Add(d)
	for !c.at.IsZero() && !c.at.After(target) {
		arms := c.arms
		c.now, c.at = c.at, time.Time{}
		c.c <- c.now
		c.mu.Unlock()
		r.wait("the tick", func() bool { return c.arms > arms })
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

func (r *loopRig) counts() (builds, swaps int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.built), len(r.swaps)
}

func (r *loopRig) counter(name string) int64 { return r.m.cfg.Metrics.Counter(name).Value() }

func (r *loopRig) want(builds, swaps int, spec, discarded int64) {
	r.t.Helper()
	if b, s := r.counts(); b != builds || s != swaps {
		r.t.Fatalf("%d builds, %d swaps; want %d, %d", b, s, builds, swaps)
	}
	if got := r.counter("fmgr_speculative_rebuilds_total"); got != spec {
		r.t.Fatalf("fmgr_speculative_rebuilds_total = %d, want %d", got, spec)
	}
	if got := r.counter("fmgr_speculative_rebuilds_discarded_total"); got != discarded {
		r.t.Fatalf("fmgr_speculative_rebuilds_discarded_total = %d, want %d", got, discarded)
	}
}

// lifecycle lists the journal's build and swap records of one epoch as
// "kind/outcome".
func (r *loopRig) lifecycle(epoch uint64) (out []string, swap schema.Event) {
	recs, _ := r.m.Events(0)
	for _, e := range recs {
		switch e.Kind {
		case schema.EvReroute, schema.EvValidate, schema.EvSwap:
			if e.Epoch == epoch {
				out = append(out, e.Kind+"/"+e.Outcome)
				if e.Kind == schema.EvSwap {
					swap = e
				}
			}
		}
	}
	return out, swap
}

const ms = time.Millisecond

// TestSpeculativeRebuild: an isolated event is built for at once and
// published exactly when its window closes; a later event inside the
// window discards that build, is rebuilt for at the close, and the
// journal says which build was which.
func TestSpeculativeRebuild(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = 25 * ms })
	r.m.Start()
	l0, l1 := fabricLink(t, r.m.t, 0), fabricLink(t, r.m.t, 1)

	r.inject([]topo.LinkID{l0}, nil)
	r.want(1, 0, 1, 0)
	r.advance(25*ms - 1)
	if r.m.Current().Epoch != 1 {
		t.Fatal("snapshot published inside its debounce window")
	}
	r.advance(1)
	r.want(1, 1, 1, 0)
	if r.built[0] != 0 || r.swaps[0].at != 25*ms {
		t.Fatalf("built at %v, swapped at %v; want 0s and 25ms", r.built[0], r.swaps[0].at)
	}
	life, swap := r.lifecycle(2)
	if got := strings.Join(life, " "); got != "reroute/ok validate/ok swap/ok" {
		t.Fatalf("epoch 2 lifecycle: %s", got)
	}
	if !strings.HasSuffix(swap.Detail, " tables=rebuilt speculated=true wait_us=25000") {
		t.Fatalf("swap detail %q does not account for the held snapshot", swap.Detail)
	}

	// A burst: the second event arrives 10 ms into the first one's window.
	r.advance(100 * ms)
	r.inject([]topo.LinkID{l1}, nil)
	r.advance(10 * ms)
	r.inject(nil, []topo.LinkID{l0})
	r.want(2, 1, 2, 1)
	r.advance(25*ms - 1)
	r.want(2, 1, 2, 1)
	r.advance(1)
	r.want(3, 2, 2, 1)
	if at := r.swaps[1].at; at != (125+10+25)*ms {
		t.Fatalf("burst swapped at %v, want 25ms after its last event", at)
	}
	if f := r.swaps[1].st.FailedLinks; len(f) != 1 || f[0] != l1 {
		t.Fatalf("published failed links %v, want [%d]: the discarded build leaked", f, l1)
	}
	life, swap = r.lifecycle(3)
	if got := strings.Join(life, " "); got != "reroute/superseded validate/superseded reroute/ok validate/ok swap/ok" {
		t.Fatalf("epoch 3 lifecycle: %s", got)
	}
	if !strings.HasSuffix(swap.Detail, " tables=rebuilt speculated=false wait_us=0") {
		t.Fatalf("swap detail %q", swap.Detail)
	}
	if got := r.counter("fmgr_reroutes_total"); got != 2 {
		t.Fatalf("fmgr_reroutes_total = %d, want the 2 published", got)
	}
	r.advance(time.Second)
	r.want(3, 2, 2, 1)
}

// TestWindowRunsFromEnqueue: the window of an event is measured from
// when it was sent, so an event that waited in the queue behind a
// rebuild in progress does not get a longer one.
func TestWindowRunsFromEnqueue(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = 25 * ms })
	l0, l1 := fabricLink(t, r.m.t, 0), fabricLink(t, r.m.t, 1)
	inner, first := r.m.validate, true
	r.m.validate = func(tb *fabricTables) error {
		if first { // the first build takes 5 ms, and the second event arrives 2 ms into it
			first = false
			r.clk.set(2 * ms)
			if _, err := r.m.InjectFaults([]topo.LinkID{l1}, nil, 0); err != nil {
				t.Error(err)
			}
			r.clk.set(3 * ms)
		}
		return inner(tb)
	}
	r.m.Start()
	r.sent++ // the one the first build sends
	r.inject([]topo.LinkID{l0}, nil)
	r.want(1, 0, 1, 1)
	r.advance(time.Second)
	r.want(2, 1, 1, 1)
	if at := r.swaps[0].at; at != 27*ms {
		t.Fatalf("swapped at %v, want 27ms: 25 after the second event was sent at 2", at)
	}
}

func TestDebounceCoalescesBursts(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = 40 * ms })
	r.m.Start()
	var fail []topo.LinkID
	for i := 0; i < 6; i++ {
		fail = append(fail, fabricLink(t, r.m.t, i))
	}
	// Six fault events in one window, 1 ms apart.
	for _, l := range fail {
		r.inject([]topo.LinkID{l}, nil)
		r.advance(ms)
	}
	r.advance(time.Second)
	// One build at the first event, discarded by the second; one at the close.
	r.want(2, 1, 1, 1)
	if at := r.swaps[0].at; at != 45*ms {
		t.Fatalf("swapped at %v, want 40ms after the sixth event at 5ms", at)
	}
	if st := r.m.Current(); st.Epoch != 2 || len(st.FailedLinks) != len(fail) {
		t.Fatalf("epoch %d with %d failed links, want epoch 2 with %d", st.Epoch, len(st.FailedLinks), len(fail))
	}

	// The same six revived by one call: however the loop happens to
	// receive them, they cost one swap and at most two builds.
	n, err := r.m.InjectFaults(nil, fail, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sent += n
	r.settle()
	r.advance(time.Second)
	if b, s := r.counts(); s != 2 || b < 3 || b > 4 {
		t.Fatalf("%d builds, %d swaps after the second burst; want 3 or 4, and 2", b, s)
	}
	if st := r.m.Current(); st.Epoch != 3 || len(st.FailedLinks) != 0 {
		t.Fatalf("epoch %d with failed links %v, want epoch 3 and none", st.Epoch, st.FailedLinks)
	}
}

// failTwice makes the first two validations of a rig fail.
func failTwice(r *loopRig) {
	inner, calls := r.m.validate, 0
	r.m.validate = func(tb *fabricTables) error {
		if calls++; calls <= 2 {
			inner(tb) // still recorded as a build
			return fmt.Errorf("injected validation failure")
		}
		return inner(tb)
	}
}

func wantFailures(t *testing.T, r *loopRig, n int64) {
	t.Helper()
	for _, name := range []string{"fmgr_reroute_failures_total", "fmgr_check_failures_total"} {
		if got := r.counter(name); got != n {
			t.Fatalf("%s = %d, want %d", name, got, n)
		}
	}
}

func TestRetryBackoffOnValidationFailure(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) {
		c.retryBase = 5 * ms
		c.retryMax = 20 * ms
	})
	failTwice(r)
	r.m.Start()
	r.inject([]topo.LinkID{fabricLink(t, r.m.t, 0)}, nil)
	// The speculation fails like any rebuild: counted, journaled, backed off.
	r.want(1, 0, 1, 0)
	wantFailures(t, r, 1)
	r.advance(5 * ms) // the window closes and the first retry is due: one rebuild, not two
	r.want(2, 0, 1, 0)
	wantFailures(t, r, 2)
	r.advance(10*ms - 1) // backoff doubled
	r.want(2, 0, 1, 0)
	r.advance(1)
	r.want(3, 1, 1, 0)
	wantFailures(t, r, 2)
	if st := r.m.Current(); st.Epoch != 2 || len(st.FailedLinks) != 1 {
		t.Fatalf("epoch %d, failed links %v", st.Epoch, st.FailedLinks)
	}
	life, _ := r.lifecycle(2)
	if got := strings.Join(life, " "); got != "reroute/ok validate/error reroute/ok validate/error reroute/ok validate/ok swap/ok" {
		t.Fatalf("epoch 2 lifecycle: %s", got)
	}
	// The backoff starts over for the next failure.
	r.advance(time.Second)
	r.want(3, 1, 1, 0)
}

// TestRetryInsideWindowIsHeld: retries that come due while the window
// is still open run, but what they build is published at the close like
// any speculation — nothing gets out early.
func TestRetryInsideWindowIsHeld(t *testing.T) {
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) {
		c.Debounce = 40 * ms
		c.retryBase = 5 * ms
		c.retryMax = 20 * ms
	})
	failTwice(r)
	r.m.Start()
	r.inject([]topo.LinkID{fabricLink(t, r.m.t, 0)}, nil)
	r.advance(40*ms - 1)
	r.want(3, 0, 3, 0)
	wantFailures(t, r, 2)
	r.mu.Lock()
	built := fmt.Sprint(r.built)
	r.mu.Unlock()
	if built != "[0s 5ms 15ms]" {
		t.Fatalf("builds at %s, want [0s 5ms 15ms]", built)
	}
	r.advance(1)
	r.want(3, 1, 3, 0)
	if at := r.swaps[0].at; at != 40*ms {
		t.Fatalf("swapped at %v, want 40ms", at)
	}
}

// digest renders everything a snapshot serves — fault state, every
// path, the standing report, the jobs, their frames, the order frame —
// with the frames' epoch stamps taken out and returned beside it: two
// snapshots of one (fault set, jobs) state digest alike whatever
// sequence of publishes led to them.
func digest(t *testing.T, st *FabricState) (string, map[sched.JobID]uint64) {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "epoch %d failed %v unroutable %v broken %d max hsd %d\n",
		st.Epoch, st.FailedLinks, st.Unroutable, st.BrokenPairs, st.HSD.MaxHSD())
	fmt.Fprintf(&b, "engine %s %s\n", st.Engine, st.Routing)
	n := st.Topo.NumHosts()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				p, err := st.Paths.PackedPath(s, d)
				fmt.Fprintln(&b, s, d, p, err)
			}
		}
	}
	if st.Paths != st.tb.Compiled {
		t.Fatalf("epoch %d: Paths are not its tables' arena", st.Epoch)
	}
	stamps := map[sched.JobID]uint64{}
	for _, j := range st.Jobs { // in ID order
		fmt.Fprintf(&b, "job %d %v\n", j.ID, j.Hosts)
		jw, ok := st.JobRouteSets[j.ID]
		if !ok {
			t.Fatalf("epoch %d: job %d has no frame", st.Epoch, j.ID)
		}
		msg, err := wire.ReadMessage(bytes.NewReader(jw.Frame))
		if err != nil {
			t.Fatalf("epoch %d: job %d: %v", st.Epoch, j.ID, err)
		}
		f := msg.(*wire.RouteSetFactored)
		if f.Epoch != jw.Epoch {
			t.Fatalf("epoch %d: job %d frame stamped %d, recorded as %d", st.Epoch, j.ID, f.Epoch, jw.Epoch)
		}
		stamps[j.ID], f.Epoch = f.Epoch, 0
		fmt.Fprintf(&b, "frame %d code %d pairs %d %x\n", j.ID, jw.Code, jw.Pairs, wire.EncodeFrame(f))
	}
	if len(st.JobRouteSets) != len(st.Jobs) {
		t.Fatalf("epoch %d: %d jobs, %d frames", st.Epoch, len(st.Jobs), len(st.JobRouteSets))
	}
	fmt.Fprintf(&b, "order %x\n", st.wireOrder)
	return b.String(), stamps
}

// TestPublishedSequenceUnderScript drives a seeded 240-event
// fail/revive/alloc/free script — some events refused — in bursts and
// alone, through the loop and through a reference manager with no loop at
// all that rebuilds from scratch for every publish. Every published
// snapshot must equal the reference's of the same (fault set, jobs) entry
// for entry, each job's frame stamped with the later of the last table
// rebuild and the job's own placement; a job event on a quiet fabric must
// publish before its call returns, with the clock standing still and
// nothing rebuilt, and carry the very tables of the snapshot before it —
// a job event changes no table (the loop assembling over a fresh
// buildTables on a placement fails here); a fault burst must swap exactly
// one window after its last fault event, whatever job events fell inside
// it, at the cost of one discarded build at most.
func TestPublishedSequenceUnderScript(t *testing.T) {
	const debounce = 25 * ms
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = debounce })
	ref := newManager(t, "rlft2:4,8", nil) // never started: the test is its loop
	r.m.Start()

	rng := rand.New(rand.NewSource(24))
	var links []topo.LinkID
	for _, l := range r.m.t.Links {
		links = append(links, l.ID) // host uplinks too: some epochs have unroutable hosts
	}
	var (
		live      []sched.JobID
		epoch     = uint64(1) // of the last publish
		last      = r.m.Current()
		rebuiltAt = uint64(1) // epoch of the last publish that carried rebuilt tables
		placedAt  = map[sched.JobID]uint64{}
		open      bool          // fault events await their tables
		closeAt   time.Duration // when their window closes
		inWindow  []sched.JobID // placed since it opened
		swaps     int
		builds    int
		discarded int64
		bursts    int
		quiet     int // job events published on a quiet fabric
		rode      int // job events that rode an open window
	)
	// published checks the swap the loop must just have made against the
	// reference.
	published := func(i int, at time.Duration, how string) {
		t.Helper()
		epoch++
		swaps++
		if _, s := r.counts(); s != swaps {
			t.Fatalf("event %d: %d swaps so far, want %d", i, s, swaps)
		}
		got := r.swaps[swaps-1]
		if got.at != at || got.st.Epoch != epoch || r.m.Current() != got.st {
			t.Fatalf("event %d: epoch %d swapped at %v, want epoch %d at %v", i, got.st.Epoch, got.at, epoch, at)
		}
		if (got.st.tb == last.tb) != (how == "reused") {
			t.Fatalf("event %d: epoch %d (tables=%s) shares its tables with epoch %d: %t", i, epoch, how, last.Epoch, got.st.tb == last.tb)
		}
		last = got.st
		want, err := ref.buildState(epoch, nil)
		if err != nil {
			t.Fatal(err)
		}
		gd, stamps := digest(t, got.st)
		if wd, _ := digest(t, want); gd != wd {
			t.Fatalf("event %d: published epoch %d differs from the reference built from scratch\n got failed %v\nwant failed %v",
				i, epoch, got.st.FailedLinks, want.FailedLinks)
		}
		for id, stamp := range stamps {
			if w := max(rebuiltAt, placedAt[id]); stamp != w {
				t.Fatalf("event %d: epoch %d serves job %d stamped %d, want %d (tables of %d, placed at %d)",
					i, epoch, id, stamp, w, rebuiltAt, placedAt[id])
			}
		}
		if _, swap := r.lifecycle(epoch); !strings.Contains(swap.Detail, " tables="+how) {
			t.Fatalf("event %d: swap record %q, want tables=%s", i, swap.Detail, how)
		}
	}
	for i := 0; i < 240; i++ {
		ev := event{}
		switch k := rng.Intn(20); {
		case k < 3:
			ev.kind, ev.link = evFail, links[rng.Intn(len(links))]
		case k < 6:
			ev.kind, ev.link = evRevive, links[rng.Intn(len(links))]
		case k < 12 || len(live) == 0:
			ev.kind, ev.size, ev.aligned = evAlloc, 1+rng.Intn(12), rng.Intn(2) == 0
		case k < 19:
			at := rng.Intn(len(live))
			ev.kind, ev.job = evFree, live[at]
			live = append(live[:at], live[at+1:]...)
		default:
			ev.kind, ev.job = evFree, 9999 // nobody's
		}
		what, want := ref.apply(ev)
		now := r.clk.Now().Sub(r.t0)
		b0, _ := r.counts()
		switch ev.kind {
		case evFail:
			r.inject([]topo.LinkID{ev.link}, nil)
		case evRevive:
			r.inject(nil, []topo.LinkID{ev.link})
		case evAlloc:
			r.sent++
			got, err := r.m.AllocJob(ev.size, ev.aligned)
			if (err == nil) != (want.err == nil) || err == nil && got.ID != want.alloc.ID {
				t.Fatalf("event %d: alloc gave %v, %v; the reference %v, %v", i, got, err, want.alloc, want.err)
			}
			if err == nil {
				live = append(live, got.ID)
				if open {
					inWindow = append(inWindow, got.ID)
				} else {
					placedAt[got.ID] = epoch + 1
				}
			}
		case evFree:
			r.sent++
			if err := r.m.FreeJob(ev.job); (err == nil) != (want.err == nil) {
				t.Fatalf("event %d: free gave %v, the reference %v", i, err, want.err)
			}
		}
		switch {
		case what == touchedTables:
			open, closeAt = true, now+debounce
		case what == touchedJobs && !open:
			// Served on return: no settle, no tick, no rebuild.
			published(i, now, "reused")
			if b, _ := r.counts(); b != b0 {
				t.Fatalf("event %d: a job event on a quiet fabric cost %d rebuilds", i, b-b0)
			}
			quiet++
		case what == touchedJobs:
			rode++
		}
		r.settle()
		if _, s := r.counts(); s != swaps {
			t.Fatalf("event %d (kind %d, touched %d, window open %t): %d swaps, want %d", i, ev.kind, what, open, s, swaps)
		}

		d := time.Duration(rng.Int63n(int64(debounce)))
		if rng.Intn(3) == 0 || i == 239 {
			d += debounce + time.Duration(rng.Int63n(int64(2*debounce)))
		}
		r.advance(d)
		if !open || now+d < closeAt {
			continue
		}
		bursts++
		rebuiltAt = epoch + 1
		for _, id := range inWindow {
			placedAt[id] = epoch + 1
		}
		open, inWindow = false, nil
		published(i, closeAt, "rebuilt")
		b, _ := r.counts()
		dc := r.counter("fmgr_speculative_rebuilds_discarded_total")
		if b-builds < 1 || b-builds > 2 || dc-discarded > 1 {
			t.Fatalf("burst %d: %d builds, %d of them discarded", bursts, b-builds, dc-discarded)
		}
		builds, discarded = b, dc
		if got := r.counter("fmgr_reroutes_total"); got != int64(bursts) {
			t.Fatalf("fmgr_reroutes_total = %d after %d bursts: it counts swaps that carried rebuilt tables", got, bursts)
		}
	}
	if bursts < 25 || discarded < 8 || quiet < 25 || rode < 25 {
		t.Fatalf("script too tame: %d bursts, %d discarded builds, %d job events published alone, %d inside a window",
			bursts, discarded, quiet, rode)
	}
}

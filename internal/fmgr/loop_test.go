package fmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fattree/internal/sched"
	"fattree/internal/schema"
	"fattree/internal/topo"
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
	built []time.Duration // when each validate call ran, from t0
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
	r.m.validate = func(st *FabricState) error {
		r.mu.Lock()
		r.built = append(r.built, r.clk.Now().Sub(r.t0))
		r.mu.Unlock()
		return inner(st)
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
	if !strings.HasSuffix(swap.Detail, " speculated=true wait_us=25000") {
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
	if !strings.HasSuffix(swap.Detail, " speculated=false wait_us=0") {
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
	r.m.validate = func(st *FabricState) error {
		if first { // the first build takes 5 ms, and the second event arrives 2 ms into it
			first = false
			r.clk.set(2 * ms)
			if _, err := r.m.InjectFaults([]topo.LinkID{l1}, nil, 0); err != nil {
				t.Error(err)
			}
			r.clk.set(3 * ms)
		}
		return inner(st)
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
	r.m.validate = func(st *FabricState) error {
		if calls++; calls <= 2 {
			inner(st) // still recorded as a build
			return fmt.Errorf("injected validation failure")
		}
		return inner(st)
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
		c.RetryBase = 5 * ms
		c.RetryMax = 20 * ms
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
		c.RetryBase = 5 * ms
		c.RetryMax = 20 * ms
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

// digest renders everything a snapshot serves: epoch, fault state, every
// pair's path, the jobs and their frozen frames.
func digest(st *FabricState) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "epoch %d failed %v unroutable %v broken %d\n", st.Epoch, st.FailedLinks, st.Unroutable, st.BrokenPairs)
	n := st.Topo.NumHosts()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				p, err := st.Paths.PackedPath(s, d)
				fmt.Fprintln(&b, s, d, p, err)
			}
		}
	}
	var ids []int
	for _, j := range st.Jobs {
		ids = append(ids, int(j.ID))
		fmt.Fprintf(&b, "job %d %v\n", j.ID, j.Hosts)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "frame %d %x\n", id, st.JobRouteSets[sched.JobID(id)].Frame)
	}
	fmt.Fprintf(&b, "order %x\n", st.wireOrder)
	return b.String()
}

// TestPublishedSequenceUnderScript drives a seeded 200-event
// fail/revive/alloc/free script, in bursts and alone, through the loop
// and through a reference manager with no loop at all — every event
// applied, one snapshot built at the end of every burst, which is what
// the loop published before it learned to build ahead. The two
// sequences must be identical, every swap must land exactly one window
// after the last event of its burst, and a burst may cost one discarded
// build at most.
func TestPublishedSequenceUnderScript(t *testing.T) {
	const debounce = 25 * ms
	r := newLoopRig(t, "rlft2:4,8", func(c *Config) { c.Debounce = debounce })
	ref := newManager(t, "rlft2:4,8", nil) // never started: the test is its loop
	r.m.Start()

	rng := rand.New(rand.NewSource(20))
	var links []topo.LinkID
	for _, l := range r.m.t.Links {
		links = append(links, l.ID) // host uplinks too: some epochs have unroutable hosts
	}
	var live []sched.JobID
	refEpoch, bursts, lastAt, builds, discarded := uint64(1), 0, time.Duration(0), 0, int64(0)
	for i := 0; i < 200; i++ {
		ev := event{reply: make(chan jobReply, 1)}
		switch k := rng.Intn(10); {
		case k < 4:
			ev.kind, ev.link = evFail, links[rng.Intn(len(links))]
		case k < 7:
			ev.kind, ev.link = evRevive, links[rng.Intn(len(links))]
		case k < 9 || len(live) == 0:
			ev.kind, ev.size, ev.aligned = evAlloc, 1+rng.Intn(8), rng.Intn(2) == 0
		default:
			at := rng.Intn(len(live))
			ev.kind, ev.job = evFree, live[at]
			live = append(live[:at], live[at+1:]...)
		}
		ref.apply(ev)
		var want jobReply
		if ev.kind == evAlloc || ev.kind == evFree {
			want = <-ev.reply
		}
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
			}
			r.settle()
		case evFree:
			r.sent++
			if err := r.m.FreeJob(ev.job); (err == nil) != (want.err == nil) {
				t.Fatalf("event %d: free gave %v, the reference %v", i, err, want.err)
			}
			r.settle()
		}
		lastAt = r.clk.Now().Sub(r.t0)
		if rng.Intn(3) > 0 && i < 199 { // the burst goes on
			r.advance(time.Duration(rng.Int63n(int64(debounce))))
			continue
		}
		r.advance(debounce + time.Duration(rng.Int63n(int64(3*debounce))))
		bursts++
		refEpoch++
		st, err := ref.buildState(refEpoch, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, s := r.counts()
		if s != bursts {
			t.Fatalf("burst %d (event %d): %d swaps so far", bursts, i, s)
		}
		if got := r.swaps[s-1]; got.at != lastAt+debounce {
			t.Fatalf("burst %d: swapped at %v, its last event was sent at %v", bursts, got.at, lastAt)
		} else if digest(got.st) != digest(st) {
			t.Fatalf("burst %d (event %d): published snapshot differs from the reference\n got failed %v\nwant failed %v",
				bursts, i, got.st.FailedLinks, st.FailedLinks)
		}
		d := r.counter("fmgr_speculative_rebuilds_discarded_total")
		if b-builds > 2 || d-discarded > 1 {
			t.Fatalf("burst %d: %d builds, %d of them discarded", bursts, b-builds, d-discarded)
		}
		builds, discarded = b, d
	}
	if bursts < 40 || discarded < 10 {
		t.Fatalf("script too tame: %d bursts, %d discarded builds", bursts, discarded)
	}
}

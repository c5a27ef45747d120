package fclient

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"fattree/internal/topo"
	"fattree/internal/wire"
)

// driftingJob is the job-mode answer of a 12-host job on two rows whose
// routes move a little every epoch: the tails into two destination
// columns are rerouted, and on every fourth epoch one host is dark.
// From epoch 100 on the job's last host is another one.
func driftingJob(epoch uint64) *wire.RouteSetFactored {
	const n, rows = 12, 2
	m := &wire.RouteSetFactored{Epoch: epoch, Engine: "dmodk", Routing: "d-mod-k", Stride: 3, Rows: rows, TailOff: []uint32{0}}
	for h := 0; h < n; h++ {
		m.Hosts = append(m.Hosts, wire.FactoredHost{Host: uint32(h), Row: uint32(h / 6), Head: uint32(2*h + 1)})
	}
	if epoch >= 100 {
		m.Hosts[n-1].Host = 40
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			via := uint32(100 + 2*r)
			if j == int(epoch%n) || j == int(epoch*5%n) {
				via += 8 * uint32(1+epoch%3)
			}
			if j/6 == r {
				m.Tails = append(m.Tails, uint32(2*j))
			} else {
				m.Tails = append(m.Tails, via, uint32(200+2*j), uint32(2*j))
			}
			m.TailOff = append(m.TailOff, uint32(len(m.Tails)))
		}
	}
	if dark := int(epoch * 7 % n); epoch%4 == 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && (i == dark || j == dark) {
					m.Broken = append(m.Broken, uint64(i*n+j))
				}
			}
		}
	}
	return m
}

// sharedHops counts the pairs of two equally shaped sets that read the
// same hop memory.
func sharedHops(a, b *wire.RouteSetResp) (shared int) {
	for k := 0; len(a.Pairs) == len(b.Pairs) && k < len(a.Pairs); k++ {
		if x, y := a.Pairs[k].Hops, b.Pairs[k].Hops; len(x) > 0 && len(y) > 0 && &x[0] == &y[0] {
			shared++
		}
	}
	return shared
}

// TestPatchedRefetch: a refetch patches the pinned set instead of
// expanding the whole answer, and nothing about the cache contract
// moves — the result is the expansion of the answer, an answer from an
// epoch behind the pinned one is still refused and counted, a change of
// the job's hosts is a full expansion, and sets already handed out stay
// as they were.
func TestPatchedRefetch(t *testing.T) {
	f := newFakeReplica(t, 5)
	f.jobMsg = driftingJob
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	fetch := func() *wire.RouteSetResp {
		t.Helper()
		set, err := c.JobRouteSet(3)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	set5 := fetch()
	frame5 := wire.EncodeFrame(set5)
	if !bytes.Equal(frame5, wire.EncodeFrame(driftingJob(5).Expand())) {
		t.Fatal("first fetch is not the expansion of the answer")
	}

	// The probe says 9, the job request is answered at epoch 2 — with
	// routes older than the hint, so NotModified: the pinned set, counted.
	f.setEpoch(9)
	f.setJobEpoch(2)
	if set := fetch(); set != set5 || c.EpochRegressions() != 1 {
		t.Fatalf("older answer: served epoch %d, %d regressions; want the pinned set and 1", set.Epoch, c.EpochRegressions())
	}
	f.setJobEpoch(0)
	set9 := fetch()
	if !bytes.Equal(wire.EncodeFrame(set9), wire.EncodeFrame(driftingJob(9).Expand())) {
		t.Fatal("patched refetch is not the expansion of the answer")
	}
	if shared := sharedHops(set9, set5); shared == 0 || shared == len(set9.Pairs) {
		t.Fatalf("%d of %d pairs share hop memory with the pinned set: not a patch", shared, len(set9.Pairs))
	}
	if !bytes.Equal(wire.EncodeFrame(set5), frame5) {
		t.Fatal("the refetch wrote to the set handed out before it")
	}

	// The job's host list changed: nothing to patch.
	f.setEpoch(100)
	set100 := fetch()
	if !bytes.Equal(wire.EncodeFrame(set100), wire.EncodeFrame(driftingJob(100).Expand())) || sharedHops(set100, set9) != 0 {
		t.Fatal("refetch across a host-list change is not a fresh expansion")
	}
	if c.EpochRegressions() != 1 || f.setReqs.Load() != 3 {
		t.Fatalf("%d regressions, %d job fetches; want 1 and 3", c.EpochRegressions(), f.setReqs.Load())
	}
}

// TestPatchedChainEqualsFreshFetch: fifty epochs of faults — fabric
// links and host uplinks, accumulating and reviving — fetched by one
// long-lived client, whose every set is a patch of a patch, and by a
// client that has never fetched before. The two must hold the same
// pair list at every epoch.
func TestPatchedChainEqualsFreshFetch(t *testing.T) {
	m := newReplicaManager(t, "rlft2:4,8")
	tp := m.Current().Topo
	alloc, err := m.AllocJob(tp.NumHosts(), false)
	if err != nil {
		t.Fatal(err)
	}
	job, addr := uint64(alloc.ID), serveBinary(t, m) // served at epoch 2, on AllocJob's return
	chain := newClient(t, Config{Addrs: []string{addr}})

	rng := rand.New(rand.NewSource(20))
	var last *wire.RouteSetResp
	var lastFrame []byte
	patched := 0
	for epoch := uint64(2); epoch < 52; epoch++ {
		if epoch > 2 {
			var fail, revive []topo.LinkID
			switch down := m.Current().FailedLinks; {
			case len(down) > 0 && rng.Intn(5) < 2:
				revive = append(revive, down[rng.Intn(len(down))])
			case rng.Intn(4) == 0:
				fail = append(fail, tp.Ports[tp.Host(rng.Intn(tp.NumHosts())).Up[0]].Link)
			default:
				fail = append(fail, topo.LinkID(tp.NumHosts()+rng.Intn(len(tp.Links)-tp.NumHosts())))
			}
			if _, err := m.InjectFaults(fail, revive, 0); err != nil {
				t.Fatal(err)
			}
			waitManagerEpoch(t, m, epoch)
		}
		got, err := chain.JobRouteSet(job)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newClient(t, Config{Addrs: []string{addr}})
		want, err := fresh.JobRouteSet(job)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		frame := wire.EncodeFrame(got)
		if got.Epoch != epoch || !bytes.Equal(frame, wire.EncodeFrame(want)) {
			t.Fatalf("epoch %d: the long-lived client holds epoch %d, differing from a fresh fetch of epoch %d",
				epoch, got.Epoch, want.Epoch)
		}
		if last != nil {
			if !bytes.Equal(wire.EncodeFrame(last), lastFrame) {
				t.Fatalf("epoch %d: the refetch wrote to the set of epoch %d", epoch, last.Epoch)
			}
			if sharedHops(got, last) > 0 {
				patched++
			}
		}
		last, lastFrame = got, frame
	}
	if n := chain.EpochRegressions(); n != 0 || patched < 25 {
		t.Fatalf("%d epoch regressions; %d of 49 refetches patched", n, patched)
	}
}

// TestOldSetsReadableWhileRefetching: sets of different epochs share
// hop memory, so readers walk the hops of sets they were handed earlier
// while the same client refetches and patches new ones. Under -race
// this proves a patch never writes to memory an older set can reach;
// the checksums prove it never changes what they read.
func TestOldSetsReadableWhileRefetching(t *testing.T) {
	f := newFakeReplica(t, 1)
	f.jobMsg = driftingJob
	c := newClient(t, Config{Addrs: []string{f.addr()}})
	checksum := func(set *wire.RouteSetResp) (sum uint64) {
		for _, p := range set.Pairs {
			for _, h := range p.Hops {
				sum = sum*31 + uint64(h)
			}
		}
		return sum
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set, err := c.JobRouteSet(3)
				if err != nil {
					t.Error(err)
					return
				}
				want := checksum(driftingJob(set.Epoch).Expand())
				for i := 0; i < 20; i++ { // long enough for several epochs to pass
					if got := checksum(set); got != want {
						t.Errorf("set of epoch %d changed under its reader", set.Epoch)
						return
					}
				}
			}
		}()
	}
	for epoch := uint64(2); epoch <= 80; epoch++ {
		f.setEpoch(epoch)
		if _, err := c.JobRouteSet(3); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

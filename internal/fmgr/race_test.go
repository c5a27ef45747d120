package fmgr

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"fattree/internal/topo"
)

// TestConcurrentRouteDuringReroute is the daemon's core consistency
// guarantee under load: many goroutines hammer /v1/route while faults
// are injected and revived concurrently, and every served path must be
// exactly the trace of ONE snapshot the manager ever made current —
// valid under either the old or the new tables, never a mix. Run with
// -race to also prove the RCU snapshot discipline data-race free.
func TestConcurrentRouteDuringReroute(t *testing.T) {
	const (
		readers     = 8
		perReader   = 400
		faultRounds = 6
	)
	var (
		mu        sync.Mutex
		snapshots = map[uint64]*FabricState{}
	)
	m := newManager(t, "128", func(c *Config) {
		c.Debounce = 2 * time.Millisecond
		c.MaxInflight = readers + 4
	})
	m.OnSwap = func(st *FabricState) {
		// OnSwap runs before the pointer store, so by the time any
		// response carries an epoch, its snapshot is recorded here.
		mu.Lock()
		snapshots[st.Epoch] = st
		mu.Unlock()
	}
	m.Start()
	h := m.Handler()
	n := m.t.NumHosts()

	var wg sync.WaitGroup
	// Fault injector: rounds of random fabric faults plus a host-uplink
	// kill, then full revive, so readers race real degraded epochs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		uplink := m.t.Ports[m.t.Host(3).Up[0]].Link
		for round := 0; round < faultRounds; round++ {
			if _, err := m.InjectFaults([]topo.LinkID{uplink}, nil, 2); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(8 * time.Millisecond)
			st := m.Current()
			if _, err := m.InjectFaults(nil, st.FailedLinks, 0); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(8 * time.Millisecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perReader; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				req := httptest.NewRequest("GET", "/v1/route", nil)
				q := req.URL.Query()
				q.Set("src", strconv.Itoa(src))
				q.Set("dst", strconv.Itoa(dst))
				req.URL.RawQuery = q.Encode()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					var doc RouteDoc
					if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					mu.Lock()
					st := snapshots[doc.Epoch]
					mu.Unlock()
					if st == nil {
						t.Errorf("response carries unknown epoch %d", doc.Epoch)
						return
					}
					if src == dst {
						if len(doc.Hops) != 0 {
							t.Errorf("self pair %d served %d hops", src, len(doc.Hops))
						}
						continue
					}
					want, err := lftOf(st).Trace(src, dst)
					if err != nil {
						t.Errorf("epoch %d served %d->%d but its own tables cannot trace it: %v",
							doc.Epoch, src, dst, err)
						return
					}
					if len(doc.Hops) != len(want) {
						t.Errorf("epoch %d %d->%d: served %d hops, snapshot traces %d",
							doc.Epoch, src, dst, len(doc.Hops), len(want))
						return
					}
					for k := range want {
						if doc.Hops[k].Link != int(want[k].Link) || doc.Hops[k].Up != want[k].Up {
							t.Errorf("epoch %d %d->%d hop %d: served %+v, snapshot %+v — mixed-snapshot path",
								doc.Epoch, src, dst, k, doc.Hops[k], want[k])
							return
						}
					}
				case http.StatusServiceUnavailable:
					// The pair was broken under the serving snapshot;
					// legitimate while host 3 is cut off.
				default:
					t.Errorf("route %d->%d: status %d: %s", src, dst, rec.Code, rec.Body.String())
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()

	// The injector must have actually caused swaps for the test to mean
	// anything.
	if m.Current().Epoch < 3 {
		t.Fatalf("only reached epoch %d; reroutes did not overlap the readers", m.Current().Epoch)
	}
}

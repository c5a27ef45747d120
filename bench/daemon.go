package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fattree/internal/fclient"
	"fattree/internal/fmgr"
	"fattree/internal/route"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// loadClients caps the load-generating goroutines/connections: the box
// this runs on has two cores and the daemon shares them.
const loadClients = 2

// daemon is an in-process ftfabricd: a manager at its default config,
// HTTP and the binary protocol split over one loopback TCP listener
// (loopback, not a real link), one job covering every host.
type daemon struct {
	tp      *topo.Topology
	m       *fmgr.Manager
	srv     *http.Server
	served  chan error
	addr    string
	job     uint64
	clients []*fclient.Client

	swapMu sync.Mutex
	swapAt map[uint64]time.Time // epoch -> when its snapshot was about to become current

	topoBuild, fmgrNew time.Duration
}

func startDaemon(o runOpts) (_ *daemon, err error) {
	d := &daemon{swapAt: map[uint64]time.Time{}, served: make(chan error, 1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	t0 := time.Now()
	if d.tp, err = topo.Build(o.sz.daemonCluster); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if d.m, err = fmgr.New(fmgr.Config{Topo: d.tp}); err != nil {
		return nil, err
	}
	d.topoBuild, d.fmgrNew = t1.Sub(t0), time.Since(t1)
	d.m.OnSwap = func(st *fmgr.FabricState) {
		d.swapMu.Lock()
		d.swapAt[st.Epoch] = time.Now()
		d.swapMu.Unlock()
	}
	d.m.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = &http.Server{Handler: d.m.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { d.served <- d.srv.Serve(wire.Split(ln, d.m.ServeWire)) }()

	alloc, err := d.m.AllocJob(d.tp.NumHosts(), false)
	if err != nil {
		return nil, err
	}
	d.job = uint64(alloc.ID)
	// The placement rebuild is debounced; wait for the job's frame.
	for deadline := time.Now().Add(10 * time.Second); d.m.Current().JobRouteSets[alloc.ID].Frame == nil; {
		if time.Now().After(deadline) {
			return nil, errors.New("job route set never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < loadClients; i++ {
		cl, err := fclient.New(fclient.Config{Addrs: []string{d.addr}})
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, cl)
		if _, err := cl.JobRouteSet(d.job); err != nil { // dial and warm the cache
			return nil, err
		}
	}
	return d, nil
}

// close stops clients, listener and manager and waits for the serving
// goroutine. Safe on a partly started daemon.
func (d *daemon) close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			d.srv.Close()
		}
		cancel()
		<-d.served
	}
	if d.m != nil {
		d.m.Close()
	}
}

// swapTime returns when the given epoch's snapshot was swapped in.
func (d *daemon) swapTime(epoch uint64) (time.Time, bool) {
	d.swapMu.Lock()
	defer d.swapMu.Unlock()
	t, ok := d.swapAt[epoch]
	return t, ok
}

// samePath reports whether a served hop list equals the arena's packed
// path for the pair.
func samePath(hops []uint32, paths *route.Compiled, src, dst int) error {
	want, err := paths.PackedPath(src, dst)
	if err != nil {
		return err
	}
	if len(hops) != len(want) {
		return fmt.Errorf("pair %d->%d: %d hops served, arena has %d", src, dst, len(hops), len(want))
	}
	for i, h := range hops {
		if h != uint32(want[i]) {
			return fmt.Errorf("pair %d->%d hop %d: served %d, arena has %d", src, dst, i, h, want[i])
		}
	}
	return nil
}

// startDaemons is the set-up of both serving workloads, repeated so the
// median set-up time can be reported.
func startDaemons(o runOpts, m map[string]sample) (*daemon, error) {
	var topoMS, newMS []float64
	d, setupS, err := repeatSetup(o.sz, func() (*daemon, error) {
		d, err := startDaemon(o)
		if err == nil {
			topoMS = append(topoMS, ms(d.topoBuild))
			newMS = append(newMS, ms(d.fmgrNew))
		}
		return d, err
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setupS)
	m["topo.build_ms"] = median(topoMS)
	m["fmgr.new_ms"] = median(newMS)
	return d, nil
}

// probeEpochRTT times the cheap epoch probe over the loopback socket.
func probeEpochRTT(cl *fclient.Client, reps int) (sample, error) {
	var rtt []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, _, err := cl.Epoch(); err != nil {
			return sample{}, err
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	return median(rtt), nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fattree/internal/fmgr"
	"fattree/internal/route"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// phaseStats is one closed-loop serving phase: every client sends its
// next request only after the previous answer arrived.
type phaseStats struct {
	reqUS  []float64 // per-request latency, all clients
	wall   time.Duration
	cpu    time.Duration
	routes int // pair routes returned
}

// closedLoop runs one goroutine per client for the budget; request(i,
// k) performs client i's k-th request and returns how many routes it
// carried. Warm-up requests run first and are not kept.
func closedLoop(o runOpts, budget time.Duration, c *checker, request func(client, k int) (int, error)) phaseStats {
	for i := 0; i < loadClients; i++ {
		for k := 0; k < o.sz.warmReqs; k++ {
			if _, err := request(i, k); err != nil {
				break // the timed loop will report it
			}
		}
	}
	var ps phaseStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0, start := cpuNow(), time.Now()
	deadline := start.Add(budget)
	for i := 0; i < loadClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat := make([]float64, 0, 1<<16)
			routes, failed := 0, 0
			var reason error
			for k := o.sz.warmReqs; ; k++ {
				t0 := time.Now()
				n, err := request(i, k)
				t1 := time.Now()
				lat = append(lat, us(t1.Sub(t0)))
				routes += n
				if err != nil {
					failed++
					if reason == nil {
						reason = err
					}
				}
				if t1.After(deadline) {
					break
				}
			}
			mu.Lock()
			ps.reqUS = append(ps.reqUS, lat...)
			ps.routes += routes
			mu.Unlock()
			c.ops(len(lat), failed, reason)
		}(i)
	}
	wg.Wait()
	ps.wall, ps.cpu = time.Since(start), cpuNow()-c0
	return ps
}

// sampled reports whether item i of request k belongs to the seeded
// 1-in-64 sample whose answer is compared with the arena.
func sampled(seed int64, k, i int) bool {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	h ^= h >> 31
	return h%64 == 0
}

// pairBatches draws the request pool: count batches of size seeded
// random ordered pairs (src != dst).
func pairBatches(seed int64, hosts, count, size int) [][][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][2]uint32, count)
	for b := range out {
		out[b] = make([][2]uint32, size)
		for i := range out[b] {
			s := rng.Intn(hosts)
			d := rng.Intn(hosts - 1)
			if d >= s {
				d++
			}
			out[b][i] = [2]uint32{uint32(s), uint32(d)}
		}
	}
	return out
}

// runServe is the serve-routes324 workload.
func runServe(o runOpts, rec *recorder, c *checker) (map[string]sample, error) {
	m := map[string]sample{}
	d, err := startDaemons(o, m)
	if err != nil {
		return nil, err
	}
	defer d.close()
	hosts := d.tp.NumHosts()
	snap := d.m.Current() // nothing rebuilds in this workload
	batches := pairBatches(o.seed, hosts, 256, hosts)

	lanes := make([]*lane, loadClients)
	for i := range lanes {
		lanes[i] = rec.lane(fmt.Sprintf("client-%d", i))
	}
	binary := func(i, k int) (int, error) {
		batch := batches[(k*loadClients+i)&(len(batches)-1)]
		s := lanes[i].begin("fclient", "fclient.RouteSet", k)
		resp, err := d.clients[i].RouteSet("", batch)
		lanes[i].end(s)
		if err != nil {
			return 0, err
		}
		if len(resp.Pairs) != len(batch) {
			return 0, fmt.Errorf("binary: %d pairs answered, %d asked", len(resp.Pairs), len(batch))
		}
		if resp.Epoch != snap.Epoch {
			return 0, fmt.Errorf("binary: epoch %d, serving snapshot is %d", resp.Epoch, snap.Epoch)
		}
		for j, p := range resp.Pairs {
			if !sampled(o.seed, k*loadClients+i, j) {
				continue
			}
			if !p.OK || p.Src != batch[j][0] || p.Dst != batch[j][1] {
				return 0, fmt.Errorf("binary: pair %d answered %+v for %v", j, p, batch[j])
			}
			if err := samePath(p.Hops, snap.Paths, int(p.Src), int(p.Dst)); err != nil {
				return 0, fmt.Errorf("binary: %w", err)
			}
		}
		return len(resp.Pairs), nil
	}

	budget := o.budget()
	if o.ledger && rec == nil {
		budget = budget * 6 / 10 // the JSON phase gets the rest
	}
	ps := closedLoop(o, budget, c, binary)
	n := len(ps.reqUS)
	asc := sorted(ps.reqUS)
	m["op_ms"] = sample{percentile(asc, 50) / 1e3, n}
	m["work_per_s"] = sample{float64(ps.routes) / ps.wall.Seconds(), n}
	m["host.cpu_ms_per_op"] = sample{ms(ps.cpu) / float64(n), n}
	m["serve.pairs_req_p90_us"] = sample{percentile(asc, 90), n}
	reportTail(o.log, "binary RouteSet request", "us", ps.reqUS)

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadClients}}
	defer hc.CloseIdleConnections()
	if o.ledger && rec == nil {
		single := batches[0]
		js := closedLoop(o, o.budget()-budget, c, func(i, k int) (int, error) {
			p := single[(k*loadClients+i)%len(single)]
			hops, err := jsonRoute(hc, d.addr, p)
			if err != nil {
				return 0, err
			}
			if sampled(o.seed, k, i) {
				if err := samePath(hops, snap.Paths, int(p[0]), int(p[1])); err != nil {
					return 0, fmt.Errorf("json: %w", err)
				}
			}
			return 1, nil
		})
		m["serve.json_req_p50_us"] = median(js.reqUS)
		reportTail(o.log, "JSON GET /v1/route request", "us", js.reqUS)
	}
	m["heap_live_mb"] = one(heapLiveMB())

	// Binary and JSON must agree pair by pair (outside the timed region).
	cross := batches[1][:32]
	resp, err := d.clients[0].RouteSet("", cross)
	if err != nil {
		return nil, err
	}
	for j, p := range cross {
		hops, err := jsonRoute(hc, d.addr, p)
		if err == nil && fmt.Sprint(hops) != fmt.Sprint(resp.Pairs[j].Hops) {
			err = fmt.Errorf("pair %v: JSON hops %v, binary hops %v", p, hops, resp.Pairs[j].Hops)
		}
		c.op(err)
	}

	if rec != nil {
		if err := probeServing(o, d, snap, batches[2], m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// jsonRoute fetches one pair over the keep-alive HTTP API and returns
// its hops in the arena's packed form.
func jsonRoute(hc *http.Client, addr string, p [2]uint32) ([]uint32, error) {
	resp, err := hc.Get(fmt.Sprintf("http://%s/v1/route?src=%d&dst=%d", addr, p[0], p[1]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/route %v: status %d: %s", p, resp.StatusCode, body)
	}
	var doc fmgr.RouteDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	hops := make([]uint32, len(doc.Hops))
	for i, h := range doc.Hops {
		hops[i] = uint32(route.PackEntry(topo.LinkID(h.Link), h.Up))
	}
	return hops, nil
}

// probeServing measures the serving stack layer by layer, each through
// the layer's own public entry point: arena lookup, wire codec, the
// manager's binary handler without TCP, its HTTP handler without a
// socket, and the client's epoch probe.
func probeServing(o runOpts, d *daemon, snap *fmgr.FabricState, batch [][2]uint32, m map[string]sample) error {
	reps := o.sz.probeReps * 20

	// Arena lookups on seeded random pairs.
	lookups := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range batch {
			if _, err := snap.Paths.PackedPath(int(p[0]), int(p[1])); err != nil {
				return err
			}
			lookups++
		}
	}
	m["route.lookup_ns_per_pair"] = sample{float64(time.Since(t0).Nanoseconds()) / float64(lookups), lookups}

	// Wire codec on one 324-pair exchange: request plus response.
	req := &wire.RouteSetReq{Pairs: batch}
	resp, err := d.clients[0].RouteSet("", batch)
	if err != nil {
		return err
	}
	var reqFrame, respFrame []byte
	var enc, dec []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		reqFrame = wire.AppendFrame(reqFrame[:0], req)
		respFrame = wire.AppendFrame(respFrame[:0], resp)
		t1 := time.Now()
		for _, frame := range [][]byte{reqFrame, respFrame} {
			typ, payload, err := wire.ReadFrame(bytes.NewReader(frame))
			if err != nil {
				return err
			}
			if _, err := wire.DecodePayload(typ, payload); err != nil {
				return err
			}
		}
		enc = append(enc, us(t1.Sub(t0)))
		dec = append(dec, us(time.Since(t1)))
	}
	m["wire.encode_pairs_us"] = median(enc)
	m["wire.decode_pairs_us"] = median(dec)

	// The manager's binary handler over an in-memory pipe: no TCP.
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() { d.m.ServeWire(srvConn); close(done) }()
	br := bufio.NewReaderSize(cliConn, 1<<16)
	var serve []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		err := wire.WriteMessage(cliConn, req)
		if err == nil {
			_, err = wire.ReadMessage(br)
		}
		if err != nil {
			cliConn.Close()
			<-done
			return fmt.Errorf("ServeWire over net.Pipe: %w", err)
		}
		serve = append(serve, us(time.Since(t0)))
	}
	cliConn.Close()
	<-done
	m["fmgr.serve_pairs_us"] = median(serve)

	// The HTTP handler with a recorder: no socket.
	h := d.m.Handler()
	var viaHTTP []float64
	for r := 0; r < reps; r++ {
		p := batch[r%len(batch)]
		hr := httptest.NewRequest("GET", fmt.Sprintf("/v1/route?src=%d&dst=%d", p[0], p[1]), nil)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, hr)
		viaHTTP = append(viaHTTP, us(time.Since(t0)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("Handler GET /v1/route: status %d", w.Code)
		}
	}
	m["fmgr.http_route_us"] = median(viaHTTP)

	m["fclient.probe_rtt_us"], err = probeEpochRTT(d.clients[0], reps)
	return err
}

// Command ftload sweeps offered load against a running ftfabricd and
// reports the latency curve: for each rung of a concurrency ladder
// (closed loop) or offered-rate ladder (open loop) it hammers one
// endpoint for a fixed window, measures client-side p50/p95/p99, and
// cross-checks the tail against the daemon's own per-endpoint RED
// histogram over the same window. The sweep is written as a
// fattree-load/v1 JSON document that `ftreport html -load` turns into
// a p99-vs-offered-load curve.
//
// Usage:
//
//	ftfabricd -topo 324 &
//	ftload -addr http://127.0.0.1:7474 -mode closed -levels 1,2,4,8 -duration 2s -out load.json
//	ftload -addr http://127.0.0.1:7474 -mode open -levels 200,400,800 -agree 0.25
//	ftload -addr http://127.0.0.1:7474 -proto binary -batch 32 -levels 1,2,4,8
//
// With -proto binary each request is one batched RouteSet frame of
// -batch random pairs over the compact wire protocol (same listener,
// sniffed by magic byte), sent through the fclient library. -addr may
// then list several replicas comma-separated; the client sheds stale
// or unhealthy ones. Every response epoch is checked for monotonicity:
// a rollback prints an "epoch-mix" line to stderr and fails the run,
// which the replica smoke test greps for.
//
// With -agree F the run fails (exit 1) unless, at the lowest level,
// the client-side p99 — re-bucketed through the server's histogram
// bounds after subtracting the measured RTT floor — agrees with the
// server histogram p99 within fraction F.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fattree/internal/cli"
	"fattree/internal/fclient"
	"fattree/internal/obs"
	"fattree/internal/schema"
)

func main() { os.Exit(cli.Main("ftload", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var cfg config
	a.Flags.StringVar(&cfg.Addr, "addr", "http://127.0.0.1:7474", "daemon base URL; -proto binary accepts a comma-separated replica list")
	a.Flags.StringVar(&cfg.Proto, "proto", "json", "json (per-pair HTTP) or binary (batched RouteSet frames)")
	a.Flags.IntVar(&cfg.Batch, "batch", 16, "binary: random pairs per RouteSet request")
	a.Flags.StringVar(&cfg.Mode, "mode", "closed", "closed (concurrency ladder) or open (offered-rate ladder)")
	a.Flags.StringVar(&cfg.Levels, "levels", "1,2,4,8", "comma-separated ladder: workers (closed) or requests/sec (open)")
	a.Flags.DurationVar(&cfg.Duration, "duration", 2*time.Second, "measurement window per level")
	a.Flags.DurationVar(&cfg.Warmup, "warmup", 250*time.Millisecond, "per-level warmup excluded from stats")
	a.Flags.IntVar(&cfg.Outstanding, "max-outstanding", 256, "open loop: in-flight cap before ticks are shed")
	seed := a.Seed(1, "seed for src/dst pair draws")
	agree := a.Flags.Float64("agree", 0, "fail unless client and server p99 agree within this fraction at the lowest level (0 disables)")
	out := a.Flags.String("out", "", "write the fattree-load/v1 document here (default stdout)")
	return func(w io.Writer) error {
		cfg.Seed = *seed
		doc, err := sweep(cfg, a.Stderr)
		if err != nil {
			return err
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if *out != "" {
			err = os.WriteFile(*out, raw, 0o666)
		} else {
			_, err = w.Write(raw)
		}
		if err != nil {
			return err
		}
		if *agree > 0 {
			if err := checkAgreement(doc, *agree); err != nil {
				return err
			}
			fmt.Fprintf(a.Stderr, "ftload: client/server p99 agree within %.0f%% at the lowest level\n", *agree*100)
		}
		var regressions int64
		for _, lvl := range doc.Levels {
			regressions += lvl.EpochRegressions
		}
		if regressions > 0 {
			return fmt.Errorf("epoch-mix: %d response(s) rolled the epoch backwards", regressions)
		}
		return nil
	}
}

// config parameterizes one sweep; separated from flags so tests drive
// sweeps in-process.
type config struct {
	Addr        string
	Proto       string // "" or "json" or "binary"
	Batch       int    // binary: pairs per RouteSet request
	Mode        string
	Levels      string
	Duration    time.Duration
	Warmup      time.Duration
	Outstanding int
	Seed        int64

	binAddrs []string // dial targets derived from Addr by sweep()
}

// endpoint names the swept route's RED series: the daemon histogram and
// the endpoint label it is recorded under, which must match the
// daemon's so the server histogram lookup finds the right series.
func endpoint(proto string) (metric, label string) {
	if proto == "binary" {
		return "fmgr_wire_request_duration_us", "route_set"
	}
	return "fmgr_http_request_duration_us", "GET /v1/route"
}

// parseAddrs splits the comma-separated replica list into the HTTP base
// URL used for metadata/metrics (the first replica) and the host:port
// dial targets for the binary client.
func parseAddrs(addr string) (httpBase string, binAddrs []string, err error) {
	for _, part := range strings.Split(addr, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part == "" {
			continue
		}
		if strings.HasPrefix(part, "https://") {
			return "", nil, fmt.Errorf("binary protocol needs plain TCP, not %q", part)
		}
		if httpBase == "" {
			httpBase = part
		}
		binAddrs = append(binAddrs, strings.TrimPrefix(part, "http://"))
	}
	if httpBase == "" {
		return "", nil, fmt.Errorf("empty address list %q", addr)
	}
	return httpBase, binAddrs, nil
}

func sweep(cfg config, progress io.Writer) (*schema.LoadDoc, error) {
	if cfg.Mode != "closed" && cfg.Mode != "open" {
		return nil, fmt.Errorf("unknown mode %q (want closed or open)", cfg.Mode)
	}
	if cfg.Proto == "" {
		cfg.Proto = "json"
	}
	if cfg.Proto != "json" && cfg.Proto != "binary" {
		return nil, fmt.Errorf("unknown protocol %q (want json or binary)", cfg.Proto)
	}
	if cfg.Batch <= 0 || cfg.Proto == "json" {
		cfg.Batch = 1 // JSON resolves exactly one route per request
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("duration %v: the measurement window must be positive", cfg.Duration)
	}
	if cfg.Mode == "open" && cfg.Outstanding < 1 {
		return nil, fmt.Errorf("max-outstanding %d: the open loop needs at least one request in flight", cfg.Outstanding)
	}
	ladder, err := parseLevels(cfg.Levels)
	if err != nil {
		return nil, err
	}
	for _, rung := range ladder {
		if cfg.Mode == "closed" && rung != math.Trunc(rung) {
			return nil, fmt.Errorf("bad level %v (a closed loop runs a whole number of workers)", rung)
		}
	}
	if cfg.Addr, cfg.binAddrs, err = parseAddrs(cfg.Addr); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}

	hosts, err := numHosts(client, cfg.Addr)
	if err != nil {
		return nil, err
	}
	// The floor probe: GET /healthz over HTTP, an EpochReq through the
	// same fclient stack the binary sweep uses.
	probe := func() error {
		resp, err := client.Get(cfg.Addr + "/healthz")
		if err != nil {
			return fmt.Errorf("healthz probe: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	if cfg.Proto == "binary" {
		fc, err := fclient.New(fclient.Config{Addrs: cfg.binAddrs})
		if err != nil {
			return nil, err
		}
		defer fc.Close()
		probe = func() error {
			if _, _, err := fc.Epoch(); err != nil {
				return fmt.Errorf("epoch probe: %w", err)
			}
			return nil
		}
	}
	floorUS, floorP99US, err := rttFloor(probe)
	if err != nil {
		return nil, err
	}
	_, label := endpoint(cfg.Proto)
	doc := &schema.LoadDoc{
		Schema:        schema.Load,
		Target:        cfg.Addr,
		Endpoint:      label,
		Protocol:      cfg.Proto,
		Hosts:         hosts,
		RTTFloorUS:    floorUS,
		RTTFloorP99US: floorP99US,
	}
	if cfg.Proto == "binary" {
		doc.Batch = cfg.Batch
	}
	fmt.Fprintf(progress, "ftload: %s (%s), %d hosts, rtt floor %.1fµs (p99 %.1fµs), %s ladder %v\n",
		cfg.Addr, cfg.Proto, hosts, floorUS, floorP99US, cfg.Mode, ladder)

	for _, rung := range ladder {
		before, err := serverHistogram(client, cfg.Addr, cfg.Proto)
		if err != nil {
			return nil, err
		}
		var lvl schema.LoadLevel
		label := fmt.Sprintf("%s %.0f/s", cfg.Mode, rung)
		if cfg.Mode == "closed" {
			lvl, err = closedLevel(client, cfg, int(rung), hosts)
			label = fmt.Sprintf("%s c=%d", cfg.Mode, int(rung))
		} else {
			lvl, err = openLevel(client, cfg, rung, hosts)
		}
		if err != nil {
			return nil, err
		}
		after, err := serverHistogram(client, cfg.Addr, cfg.Proto)
		if err != nil {
			return nil, err
		}
		lvl.ServerP99US = histDelta(before, after).Quantile(0.99)
		lvl.RoutesRPS = lvl.AchievedRPS * float64(cfg.Batch)
		doc.Levels = append(doc.Levels, lvl)
		line := fmt.Sprintf("ftload: %s: %.0f req/s (%.0f routes/s), p50 %.1fµs p99 %.1fµs (server p99 %.1fµs), %d errors",
			label, lvl.AchievedRPS, lvl.RoutesRPS, lvl.P50US, lvl.P99US, lvl.ServerP99US, lvl.Errors)
		if lvl.Mode == "open" {
			line += fmt.Sprintf(", shed %d (%.0f/s)", lvl.Shed, lvl.ShedRPS)
		}
		fmt.Fprintln(progress, line)
	}
	return doc, nil
}

// parseLevels parses the comma ladder and sorts it ascending so the
// emitted sweep is monotone in offered load.
func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad level %q (want a positive number)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty level ladder")
	}
	sort.Float64s(out)
	return out, nil
}

// numHosts learns the cluster size from GET /v1/order.
func numHosts(client *http.Client, addr string) (int, error) {
	var doc struct {
		HostOf []int `json:"host_of"`
	}
	if err := getJSON(client, addr+"/v1/order", &doc); err != nil {
		return 0, err
	}
	if len(doc.HostOf) == 0 {
		return 0, fmt.Errorf("daemon reports zero hosts")
	}
	return len(doc.HostOf), nil
}

// rttFloor times 200 round trips of probe — the transport overhead a
// client-side latency carries that the server-side handler histogram
// does not — and returns their median plus their bucketized p99. The
// median characterizes the typical floor; the p99 is what the agreement
// gate subtracts, because client and server distributions are compared
// tail against tail and the transport tail (scheduler wakeups, TCP
// jitter) is far fatter than the transport median.
func rttFloor(probe func() error) (median, p99 float64, err error) {
	const probes = 200
	samples := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		if err := probe(); err != nil {
			return 0, 0, err
		}
		samples = append(samples, float64(time.Since(start).Microseconds()))
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], bucketizedP99(samples), nil
}

// bucketizedP99 estimates p99 through the server's histogram bounds, so
// every quantity the agreement gate compares carries the same bucketing
// error.
func bucketizedP99(samples []float64) float64 {
	counts := make([]uint64, len(obs.DefaultREDBucketsUS)+1)
	for _, s := range samples {
		counts[sort.SearchFloat64s(obs.DefaultREDBucketsUS, s)]++
	}
	return obs.HistogramSnapshot{Bounds: obs.DefaultREDBucketsUS, Counts: counts}.Quantile(0.99)
}

// serverHistogram fetches the daemon's RED duration histogram for the
// swept endpoint from the JSON /metrics snapshot.
func serverHistogram(client *http.Client, addr, proto string) (obs.HistogramSnapshot, error) {
	var snap obs.Snapshot
	if err := getJSON(client, addr+"/metrics", &snap); err != nil {
		return obs.HistogramSnapshot{}, err
	}
	metric, label := endpoint(proto)
	name := obs.Labeled(metric, "endpoint", label)
	h, ok := snap.Histograms[name]
	if !ok {
		// No request served yet: an empty snapshot with the default
		// bounds subtracts cleanly.
		h = obs.HistogramSnapshot{
			Bounds: obs.DefaultREDBucketsUS,
			Counts: make([]uint64, len(obs.DefaultREDBucketsUS)+1),
		}
	}
	return h, nil
}

// histDelta subtracts two cumulative snapshots of the same histogram,
// leaving the distribution observed between them.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]uint64, len(after.Counts)),
		Sum:    after.Sum - before.Sum,
		Count:  after.Count - before.Count,
	}
	for i := range after.Counts {
		c := after.Counts[i]
		if i < len(before.Counts) && before.Counts[i] <= c {
			c -= before.Counts[i]
		}
		d.Counts[i] = c
	}
	return d
}

func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// worker state shared by both loop shapes.
type collector struct {
	mu       sync.Mutex
	samples  []float64 // client RTT, microseconds
	errors   int64
	maxEpoch uint64 // highest response epoch seen
	regress  int64  // responses older than an earlier one
}

// record files one measured request. Epochs must be monotone across the
// whole level: any rollback is an epoch mix — some replica answered with
// older tables after a newer epoch was already observed.
func (c *collector) record(us float64, ok bool, epoch uint64) {
	c.mu.Lock()
	c.samples = append(c.samples, us)
	switch {
	case !ok:
		c.errors++
	case epoch < c.maxEpoch:
		c.regress++
	default:
		c.maxEpoch = epoch
	}
	c.mu.Unlock()
}

// A requester fires one request for the drawn pairs and reports its RTT
// in microseconds, whether the daemon served it, and the response epoch
// (0 when the protocol carries none).
type requester func(pairs [][2]uint32) (us float64, ok bool, epoch uint64)

// newRequester returns a requester for the sweep's protocol and the
// function that releases it. JSON resolves pairs[0] with one GET
// /v1/route on the shared client (200 and 503 both count as served; 503
// is a legitimate degraded-fabric answer, anything else is an error).
// Binary sends one batched RouteSet through an fclient the requester
// owns over the replica list.
func newRequester(client *http.Client, cfg config) (requester, func(), error) {
	if cfg.Proto == "binary" {
		fc, err := fclient.New(fclient.Config{Addrs: cfg.binAddrs, RequestTimeout: 10 * time.Second})
		if err != nil {
			return nil, nil, err
		}
		return func(pairs [][2]uint32) (float64, bool, uint64) {
			start := time.Now()
			rs, err := fc.RouteSet("", pairs)
			us := float64(time.Since(start).Microseconds())
			if err != nil {
				return us, false, 0
			}
			return us, true, rs.Epoch
		}, func() { fc.Close() }, nil
	}
	return func(pairs [][2]uint32) (float64, bool, uint64) {
		start := time.Now()
		resp, err := client.Get(fmt.Sprintf("%s/v1/route?src=%d&dst=%d", cfg.Addr, pairs[0][0], pairs[0][1]))
		us := float64(time.Since(start).Microseconds())
		if err != nil {
			return us, false, 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return us, resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable, 0
	}, func() {}, nil
}

// drawPairs fills pairs with batch random src/dst pairs.
func drawPairs(pairs [][2]uint32, rng *rand.Rand, hosts, batch int) [][2]uint32 {
	pairs = pairs[:0]
	for i := 0; i < batch; i++ {
		pairs = append(pairs, [2]uint32{uint32(rng.Intn(hosts)), uint32(rng.Intn(hosts))})
	}
	return pairs
}

// closedLevel runs `workers` goroutines back-to-back for the window,
// each with its own requester and seeded pair stream: offered load
// equals capacity at this concurrency.
func closedLevel(client *http.Client, cfg config, workers, hosts int) (schema.LoadLevel, error) {
	col := &collector{}
	warmupEnd := time.Now().Add(cfg.Warmup)
	deadline := warmupEnd.Add(cfg.Duration)
	reqs := make([]requester, workers)
	for w := range reqs {
		req, release, err := newRequester(client, cfg)
		if err != nil {
			return schema.LoadLevel{}, err
		}
		defer release() // when the level ends
		reqs[w] = req
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			pairs := make([][2]uint32, 0, cfg.Batch)
			for time.Now().Before(deadline) {
				pairs = drawPairs(pairs, rng, hosts, cfg.Batch)
				us, ok, epoch := reqs[w](pairs)
				if time.Now().After(warmupEnd) {
					col.record(us, ok, epoch)
				}
			}
		}(w)
	}
	wg.Wait()
	lvl := summarize(col, cfg.Duration)
	lvl.Mode = "closed"
	lvl.Concurrency = workers
	return lvl, nil
}

// openLevel offers a fixed rate on a ticker regardless of completions,
// shedding ticks when the outstanding cap is hit — the saturation
// signal a closed loop cannot produce. Requesters come from a free list,
// so at most Outstanding are ever alive.
func openLevel(client *http.Client, cfg config, rps float64, hosts int) (schema.LoadLevel, error) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		return schema.LoadLevel{}, fmt.Errorf("rate %.0f/s too fast to tick", rps)
	}
	col := &collector{}
	sem := make(chan struct{}, cfg.Outstanding)
	free := make(chan requester, cfg.Outstanding)
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))

	var shed int64
	var wg sync.WaitGroup
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	warmupEnd := time.Now().Add(cfg.Warmup)
	deadline := warmupEnd.Add(cfg.Duration)
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			if now.After(warmupEnd) {
				shed++
			}
			continue
		}
		var req requester
		select {
		case req = <-free:
		default:
			r, release, err := newRequester(client, cfg)
			if err != nil {
				<-sem
				return schema.LoadLevel{}, err
			}
			defer release() // when the level ends, not per tick
			req = r
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rngMu.Lock()
			pairs := drawPairs(make([][2]uint32, 0, cfg.Batch), rng, hosts, cfg.Batch)
			rngMu.Unlock()
			start := time.Now()
			us, ok, epoch := req(pairs)
			if start.After(warmupEnd) {
				col.record(us, ok, epoch)
			}
			free <- req
		}()
	}
	wg.Wait()
	lvl := summarize(col, cfg.Duration)
	lvl.Mode = "open"
	lvl.OfferedRPS = rps
	lvl.Shed = shed
	lvl.ShedRPS = float64(shed) / cfg.Duration.Seconds()
	return lvl, nil
}

// summarize folds collected samples into a LoadLevel: exact quantiles,
// plus a p99 re-estimated through the server's histogram bounds so the
// client and server tails carry the same bucketing error.
func summarize(col *collector, window time.Duration) schema.LoadLevel {
	col.mu.Lock()
	samples := col.samples
	errors := col.errors
	regress := col.regress
	col.mu.Unlock()
	lvl := schema.LoadLevel{
		Sent:             int64(len(samples)),
		Errors:           errors,
		EpochRegressions: regress,
		DurationS:        window.Seconds(),
	}
	if len(samples) == 0 {
		return lvl
	}
	sort.Float64s(samples)
	lvl.AchievedRPS = float64(len(samples)) / window.Seconds()
	lvl.P50US = exactQuantile(samples, 0.50)
	lvl.P95US = exactQuantile(samples, 0.95)
	lvl.P99US = exactQuantile(samples, 0.99)
	lvl.MaxUS = samples[len(samples)-1]

	lvl.BucketP99US = bucketizedP99(samples)
	return lvl
}

// exactQuantile interpolates between order statistics of sorted
// samples.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// checkAgreement gates on the lowest level: after subtracting the RTT
// floor's p99 (tail against tail — client latency is transport plus
// handling, and at low load the transport tail dominates), the client's
// bucketized p99 must land within `frac` of the server's histogram p99,
// or within one fine bucket (250µs) absolute — bucket-edge effects at
// microsecond scales otherwise dominate the relative error.
func checkAgreement(doc *schema.LoadDoc, frac float64) error {
	if len(doc.Levels) == 0 {
		return fmt.Errorf("no levels to check")
	}
	lvl := doc.Levels[0]
	if lvl.ServerP99US <= 0 {
		return fmt.Errorf("server histogram recorded nothing at the lowest level")
	}
	client := lvl.BucketP99US - doc.RTTFloorP99US
	if client < 0 {
		client = 0
	}
	diff := math.Abs(client - lvl.ServerP99US)
	if diff <= 250 {
		return nil
	}
	if rel := diff / lvl.ServerP99US; rel > frac {
		return fmt.Errorf("client p99 %.1fµs (floor-p99-adjusted %.1fµs) vs server p99 %.1fµs: off by %.0f%% > %.0f%%",
			lvl.BucketP99US, client, lvl.ServerP99US, rel*100, frac*100)
	}
	return nil
}

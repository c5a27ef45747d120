// Package fclient is the Go client for ftfabricd's binary route
// protocol: persistent connections, multi-replica failover with
// per-replica backoff, and epoch-pinned per-job route-set caching so a
// steady-state consumer costs the daemon one epoch probe per
// revalidation, not a refetch.
//
// A Client is safe for concurrent use. Requests that land on the same
// replica are serialized on its single connection (the round-trip
// holds a per-replica mutex across write and read), so
// throughput-sensitive callers (load generators) should run one Client
// per worker.
//
// Route sets returned by JobRouteSet are shared and read-only: every
// caller polling one epoch gets the same value, and the sets of
// successive epochs share the hop memory of every destination column
// the epoch change did not move. Copy before modifying.
package fclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fattree/internal/wire"
)

// Config parameterizes a Client. Zero values pick the documented
// defaults.
type Config struct {
	// Addrs lists the replica endpoints (host:port). At least one is
	// required; order carries no preference — the picker ranks replicas
	// by observed epoch and health.
	Addrs []string
	// RequestTimeout bounds one request/response round-trip
	// (default 5s).
	RequestTimeout time.Duration

	// Test seams, always the defaults outside this package's tests.
	// dialTimeout bounds one connection attempt (2s). retryBase is the
	// first per-replica backoff after a connection failure; it doubles
	// per consecutive failure up to retryMax (50ms and 2s). maxAttempts
	// bounds replica attempts per request (2*len(Addrs)).
	dialTimeout         time.Duration
	retryBase, retryMax time.Duration
	maxAttempts         int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.dialTimeout <= 0 {
		out.dialTimeout = 2 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 5 * time.Second
	}
	if out.retryBase <= 0 {
		out.retryBase = 50 * time.Millisecond
	}
	if out.retryMax <= 0 {
		out.retryMax = 2 * time.Second
	}
	if out.maxAttempts <= 0 {
		out.maxAttempts = 2 * len(out.Addrs)
	}
	return out
}

// replica is the per-endpoint state: one persistent connection plus
// the health/epoch facts the picker ranks by.
type replica struct {
	addr string
	// reqMu serializes the dial+write+read of one request on this
	// replica's connection; without it concurrent callers picking the
	// same replica would interleave frames and read each other's
	// responses off the shared reader.
	reqMu sync.Mutex
	// out is the request-frame scratch, kept across requests under reqMu
	// like the reader's payload scratch (wire.Retain bounds both).
	out       []byte
	conn      net.Conn
	fr        *wire.Reader
	lastEpoch uint64    // highest epoch seen in any response
	probed    bool      // at least one successful response seen
	fails     int       // consecutive connection failures
	downUntil time.Time // backoff gate; zero when healthy
}

// jobSet is one epoch-pinned cached route set and the message it was
// expanded from, which the next epoch's message is compared against.
// Immutable: a pin that advances replaces the entry.
type jobSet struct {
	epoch uint64 // the latest epoch the set is known to be current at: >= set.Epoch
	set   *wire.RouteSetResp
	from  *wire.RouteSetFactored
}

// Client talks the binary protocol to one or more ftfabricd replicas.
type Client struct {
	cfg Config

	mu          sync.Mutex
	reps        []*replica
	rr          int        // rotates tie-breaks across equally ranked replicas
	cand        []*replica // pick's candidate list, reused across requests
	jobs        map[uint64]*jobSet
	regressions int64
	closed      bool
}

// ErrNoReplicas means every configured replica failed within the
// attempt budget.
var ErrNoReplicas = errors.New("fclient: no replica available")

// ErrClosed means the Client was Closed; requests fail immediately
// rather than burning the retry budget.
var ErrClosed = errors.New("fclient: client closed")

// New builds a Client. It does not dial — connections are established
// lazily on first use.
func New(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("fclient: Config.Addrs is empty")
	}
	c := &Client{cfg: cfg.withDefaults(), jobs: map[uint64]*jobSet{}}
	for _, a := range cfg.Addrs {
		c.reps = append(c.reps, &replica{addr: a})
	}
	return c, nil
}

// Close drops every connection. The Client is unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, r := range c.reps {
		if r.conn != nil {
			r.conn.Close()
			r.conn, r.fr = nil, nil
		}
	}
	return nil
}

// EpochRegressions counts server answers that would have rolled a
// pinned job route set back to an older epoch. The guard kept the
// pinned set each time; a nonzero count means some replica served
// stale tables.
func (c *Client) EpochRegressions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.regressions
}

// Epoch probes the best replica for its current epoch and engine.
func (c *Client) Epoch() (uint64, string, error) {
	resp, err := c.do(frameOf(wire.EpochReq{}))
	if err != nil {
		return 0, "", err
	}
	er, ok := resp.(*wire.EpochResp)
	if !ok {
		return 0, "", fmt.Errorf("fclient: epoch probe answered %T", resp)
	}
	return er.Epoch, er.Engine, nil
}

// RouteSet resolves an explicit pair batch against engine (empty for
// the active engine). No caching: callers with a per-job working set
// should use JobRouteSet.
func (c *Client) RouteSet(engineName string, pairs [][2]uint32) (*wire.RouteSetResp, error) {
	// The concrete-typed encoder keeps the request on this stack.
	req := wire.RouteSetReq{Engine: engineName, Pairs: pairs}
	resp, err := c.do(func(dst []byte) []byte { return wire.AppendRouteSetReq(dst, &req) })
	if err != nil {
		return nil, err
	}
	rs, ok := resp.(*wire.RouteSetResp)
	if !ok {
		return nil, fmt.Errorf("fclient: route set answered %T", resp)
	}
	return rs, nil
}

// JobRouteSet returns the job's full route set — every ordered pair of
// its hosts, source-major — epoch-pinned. A cached set is revalidated
// with a cheap epoch probe: while the server epoch still matches the
// pin, the cached set is returned without a refetch. When the epoch
// moved, the refetch carries the pinned epoch as a hint; the server
// holds it against the epoch the job's routes were computed at, so an
// epoch that only placed or freed other jobs is answered NotModified —
// the pin advances to it, the set stays — and only a reroute sends the
// routes again. A response older than the pinned epoch never lowers the
// pin or replaces the set (see EpochRegressions).
//
// When the server answers that the job has no route set (it was freed),
// the error is returned and the cached set is dropped; a transport
// failure keeps it.
//
// The returned set is shared and must not be written to: it is the
// cached value itself, and its Hops may be the memory an older or a
// newer epoch's set reads too. A set stays valid and unchanged for as
// long as the caller holds it.
func (c *Client) JobRouteSet(job uint64) (*wire.RouteSetResp, error) {
	c.mu.Lock()
	cached := c.jobs[job]
	c.mu.Unlock()

	if cached != nil {
		epoch, _, err := c.Epoch()
		if err == nil && epoch == cached.epoch {
			return cached.set, nil // revalidated: probe only, no refetch
		}
		if err == nil && epoch < cached.epoch {
			// The best replica is behind the pinned set. Serving its
			// tables would mix epochs backwards; keep the pinned set.
			c.noteRegression()
			return cached.set, nil
		}
		// Epoch moved forward (or the probe failed): refetch with the
		// pinned epoch as hint.
	}

	req := &wire.RouteSetReq{ByJob: true, Job: job}
	if cached != nil {
		req.EpochHint = cached.epoch
	}
	resp, err := c.do(frameOf(req))
	if err != nil {
		var er *wire.ErrorResp
		if cached != nil && errors.As(err, &er) && er.Code == wire.CodeNotFound {
			c.mu.Lock()
			if c.jobs[job] == cached {
				delete(c.jobs, job)
			}
			c.mu.Unlock()
		}
		return nil, err
	}
	switch rs := resp.(type) {
	case *wire.NotModified:
		if cached == nil {
			return nil, fmt.Errorf("fclient: NotModified without a cached set (epoch %d)", rs.Epoch)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		switch {
		case c.jobs[job] != cached: // a concurrent call moved on; this answer is about the old entry
		case rs.Epoch > cached.epoch:
			// The set is this epoch's too: pin it, so the next probe hits.
			c.jobs[job] = &jobSet{epoch: rs.Epoch, set: cached.set, from: cached.from}
		case rs.Epoch < cached.epoch:
			c.regressions++ // a replica behind the pin; the pin stays
		}
		return cached.set, nil
	case *wire.RouteSetFactored:
		// The factored frame is expanded here, once per fetched epoch;
		// every later poll of the epoch returns the pinned pair list. With
		// a pinned set to start from, only the destination columns the
		// new epoch moved are expanded again.
		var set *wire.RouteSetResp
		if cached != nil {
			set = rs.ExpandFrom(cached.from, cached.set)
		} else {
			set = rs.Expand()
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if cur := c.jobs[job]; cur != nil && set.Epoch <= cur.set.Epoch {
			// Never replace the pinned set with an older epoch's; a twin of
			// it (a concurrent cold fetch) changes nothing, the pin included.
			if set.Epoch < cur.set.Epoch {
				c.regressions++
			}
			return cur.set, nil
		}
		c.jobs[job] = &jobSet{epoch: set.Epoch, set: set, from: rs}
		return set, nil
	default:
		return nil, fmt.Errorf("fclient: job route set answered %T", resp)
	}
}

func (c *Client) noteRegression() {
	c.mu.Lock()
	c.regressions++
	c.mu.Unlock()
}

// frameOf adapts a message to do's encoder argument.
func frameOf(m wire.Message) func([]byte) []byte {
	return func(dst []byte) []byte { return wire.AppendFrame(dst, m) }
}

// do runs one request with replica failover: pick the best replica,
// round-trip, and on a connection failure back it off and move on. A
// decoded ErrorResp is an application answer, not a transport failure —
// it is returned as an error without burning the replica. encode appends
// the request's frame to the chosen replica's scratch.
func (c *Client) do(encode func(dst []byte) []byte) (wire.Message, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		r := c.pick()
		if r == nil {
			if c.isClosed() {
				return nil, ErrClosed
			}
			// Everything is backing off; wait out the nearest gate
			// rather than spinning through the attempt budget.
			d := c.nearestWake()
			if d <= 0 || d > c.cfg.retryMax {
				d = c.cfg.retryBase
			}
			time.Sleep(d)
			continue
		}
		resp, err := c.roundTrip(r, encode)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			c.markDown(r)
			continue
		}
		c.markUp(r, resp)
		if er, ok := resp.(*wire.ErrorResp); ok {
			return nil, fmt.Errorf("fclient: %s: %w", r.addr, er)
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return nil, fmt.Errorf("fclient: all %d attempts failed: %w", c.cfg.maxAttempts, lastErr)
}

// pick returns the healthiest replica: not in backoff, highest
// observed epoch, ties rotated. A replica that served a lower epoch
// than some sibling is shed automatically until it catches up, but a
// never-probed replica stays a candidate — its epoch is unknown, and
// without discovery it could never be preferred.
func (c *Client) pick() *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	now := time.Now()
	var bestEpoch uint64
	for _, r := range c.reps {
		if r.probed && !now.Before(r.downUntil) && r.lastEpoch > bestEpoch {
			bestEpoch = r.lastEpoch
		}
	}
	cand := c.cand[:0]
	for _, r := range c.reps {
		if now.Before(r.downUntil) {
			continue
		}
		if !r.probed || r.lastEpoch == bestEpoch {
			cand = append(cand, r)
		}
	}
	c.cand = cand
	if len(cand) == 0 {
		return nil
	}
	c.rr++
	return cand[c.rr%len(cand)]
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) nearestWake() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min time.Duration = -1
	now := time.Now()
	for _, r := range c.reps {
		if d := r.downUntil.Sub(now); d > 0 && (min < 0 || d < min) {
			min = d
		}
	}
	return min
}

// roundTrip sends one frame and reads one reply on r's connection,
// dialing lazily. r.reqMu is held across the whole exchange, so
// concurrent callers that picked the same replica queue instead of
// interleaving frames (or dials) on the shared connection. Any
// transport error invalidates the connection.
func (c *Client) roundTrip(r *replica, encode func(dst []byte) []byte) (wire.Message, error) {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	conn, fr := r.conn, r.fr
	c.mu.Unlock()
	if conn == nil {
		nc, err := net.DialTimeout("tcp", r.addr, c.cfg.dialTimeout)
		if err != nil {
			return nil, err
		}
		conn, fr = nc, wire.NewReader(bufio.NewReaderSize(nc, 64<<10))
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return nil, ErrClosed
		}
		r.conn, r.fr = conn, fr
		c.mu.Unlock()
	}

	conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	frame := encode(r.out)
	r.out = wire.Retain(frame)
	if _, err := conn.Write(frame); err != nil {
		c.dropConn(r, conn)
		return nil, err
	}
	resp, err := fr.ReadMessage()
	if err != nil {
		c.dropConn(r, conn)
		return nil, err
	}
	return resp, nil
}

func (c *Client) dropConn(r *replica, conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if r.conn == conn {
		r.conn, r.fr = nil, nil
	}
	c.mu.Unlock()
}

// markDown records a transport failure: exponential per-replica
// backoff, doubling per consecutive failure up to retryMax.
func (c *Client) markDown(r *replica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.fails++
	d := c.cfg.retryBase << (r.fails - 1)
	if d > c.cfg.retryMax || d <= 0 {
		d = c.cfg.retryMax
	}
	r.downUntil = time.Now().Add(d)
}

// markUp clears backoff and advances the replica's observed epoch from
// any epoch-stamped response.
func (c *Client) markUp(r *replica, resp wire.Message) {
	var epoch uint64
	switch m := resp.(type) {
	case *wire.EpochResp:
		epoch = m.Epoch
	case *wire.RouteSetResp:
		epoch = m.Epoch
	case *wire.RouteSetFactored:
		epoch = m.Epoch
	case *wire.NotModified:
		epoch = m.Epoch
	case *wire.OrderResp:
		epoch = m.Epoch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r.fails = 0
	r.probed = true
	r.downUntil = time.Time{}
	if epoch > r.lastEpoch {
		r.lastEpoch = epoch
	}
}

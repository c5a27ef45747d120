package fmgr

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"fattree/internal/fabric"
	"fattree/internal/obs"
	"fattree/internal/sched"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// HopDoc is one hop of a served path.
type HopDoc struct {
	Link int    `json:"link"`
	Up   bool   `json:"up"`
	From string `json:"from"`
	To   string `json:"to"`
}

// RouteDoc is the GET /v1/route response body.
type RouteDoc struct {
	Schema  string   `json:"schema"`
	Epoch   uint64   `json:"epoch"`
	Engine  string   `json:"engine"`
	Routing string   `json:"routing"`
	Src     int      `json:"src"`
	Dst     int      `json:"dst"`
	Hops    []HopDoc `json:"hops"`
}

// OrderDoc is the GET /v1/order response body.
type OrderDoc struct {
	Schema string `json:"schema"`
	Epoch  uint64 `json:"epoch"`
	Label  string `json:"label"`
	HostOf []int  `json:"host_of"`
}

// HSDDoc is the GET /v1/hsd response body: the cached Shift summary of
// the current snapshot.
type HSDDoc struct {
	Epoch          uint64  `json:"epoch"`
	Engine         string  `json:"engine"`
	Sequence       string  `json:"sequence"`
	Ordering       string  `json:"ordering"`
	Routing        string  `json:"routing"`
	Stages         int     `json:"stages"`
	MaxHSD         int     `json:"max_hsd"`
	AvgMaxHSD      float64 `json:"avg_max_hsd"`
	ContentionFree bool    `json:"contention_free"`
	SyncBandwidth  float64 `json:"sync_bandwidth"`
	FailedLinks    int     `json:"failed_links"`
	Unroutable     int     `json:"unroutable_hosts"`
	BrokenPairs    int     `json:"broken_pairs"`
}

// JobDoc is one allocation in job responses. Engine is the daemon's one
// routing engine, which serves every job's traffic.
type JobDoc struct {
	ID             int    `json:"id"`
	Size           int    `json:"size"`
	Hosts          []int  `json:"hosts"`
	Engine         string `json:"engine"`
	ContentionFree bool   `json:"contention_free"`
	Isolated       bool   `json:"isolated"`
}

type errorDoc struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/route?src=S&dst=D  traced path under the current snapshot
//	     (&engine=NAME must name the daemon's engine: 404 otherwise)
//	GET  /v1/order              topology-aware MPI node order
//	GET  /v1/hsd                cached Shift-HSD summary
//	GET  /v1/fabric             fattree-fabric/v1 fabric document
//	GET  /v1/jobs               placements frozen in the snapshot
//	GET  /v1/events?limit=N&since_seq=S  fabric event journal, oldest
//	     first; since_seq returns only records with seq >= S for
//	     incremental polling
//	POST /v1/faults             enqueue fail/revive/fail_random events
//	POST /v1/jobs               allocate a job (synchronous)
//	DELETE /v1/jobs?id=N        release a job (synchronous)
//	GET  /healthz               liveness + current epoch
//	GET  /metrics               obs registry snapshot; JSON by default,
//	                            Prometheus text exposition when the
//	                            Accept header asks for text/plain or
//	                            with ?format=prometheus
//	     /debug/pprof/          the usual pprof handlers
//
// Every /v1 route runs behind the max-inflight gate (429 when full) and
// the request timeout; /healthz, /metrics and pprof bypass both so the
// daemon stays observable under load.
func (m *Manager) Handler() http.Handler {
	api := http.NewServeMux()
	red := obs.NewRED(m.cfg.Metrics, "fmgr_http")
	// Per-route RED handles are resolved once here, not per request:
	// the serving path pays two atomic adds and one histogram
	// observation, no lock, no map lookup — and the endpoint label is
	// the registered pattern, so label cardinality is bounded by the
	// route table.
	handle := func(pattern string, h http.HandlerFunc) {
		ep := red.Endpoint(pattern)
		api.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			h(sw, r)
			ep.Observe(sw.status, time.Since(start))
		})
	}
	handle("GET /v1/route", m.handleRoute)
	handle("GET /v1/order", m.handleOrder)
	handle("GET /v1/hsd", m.handleHSD)
	handle("GET /v1/fabric", m.handleFabric)
	handle("GET /v1/jobs", m.handleJobsList)
	handle("GET /v1/events", m.handleEvents)
	handle("POST /v1/faults", m.handleFaults)
	handle("POST /v1/jobs", m.handleJobAlloc)
	handle("DELETE /v1/jobs", m.handleJobFree)

	mux := http.NewServeMux()
	mux.Handle("/v1/", m.gated(http.TimeoutHandler(api, m.cfg.RequestTimeout, `{"error":"request timed out"}`)))
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// gated applies the max-inflight semaphore: requests beyond the cap get
// an immediate 429 instead of queueing.
func (m *Manager) gated(next http.Handler) http.Handler {
	throttled := m.cfg.Metrics.Counter("fmgr_http_throttled_total")
	inflight := m.cfg.Metrics.Gauge("fmgr_http_inflight")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case m.gate <- struct{}{}:
			inflight.Add(1)
			defer func() {
				<-m.gate
				inflight.Add(-1)
			}()
			next.ServeHTTP(w, r)
		default:
			throttled.Inc()
			writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: "too many in-flight requests"})
		}
	})
}

// statusWriter captures the status code the wrapped handler sends so
// the middleware can classify the response after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// reqSpan starts a request trace for one in every SpanSample requests;
// the rest get a nil span, which every span method treats as a no-op.
func (m *Manager) reqSpan(name string) *obs.Span {
	if m.cfg.Spans == nil {
		return nil
	}
	if n := uint64(m.cfg.SpanSample); n > 1 && m.spanSeq.Add(1)%n != 0 {
		return nil
	}
	return m.cfg.Spans.StartTrace(name)
}

func (m *Manager) handleRoute(w http.ResponseWriter, r *http.Request) {
	sp := m.reqSpan("GET /v1/route")
	defer sp.End()

	c := sp.Child("decode")
	src, err := intParam(r, "src")
	if err != nil {
		c.End()
		sp.TagStr("outcome", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	dst, err := intParam(r, "dst")
	c.End()
	if err != nil {
		sp.TagStr("outcome", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	sp.TagNum("src", float64(src))
	sp.TagNum("dst", float64(dst))

	c = sp.Child("snapshot")
	st := m.Current()
	n := st.Topo.NumHosts()
	c.End()
	sp.TagNum("epoch", float64(st.Epoch))
	engName, paths, ok := st.tables(r.URL.Query().Get("engine"))
	if !ok {
		sp.TagStr("outcome", "bad_request")
		writeJSON(w, http.StatusNotFound, errorDoc{Error: notServed(engName, st)})
		return
	}
	doc := RouteDoc{Schema: schema.Route, Epoch: st.Epoch, Engine: engName, Routing: paths.Label(), Src: src, Dst: dst, Hops: []HopDoc{}}
	c = sp.Child("lookup")
	if status := pairStatus(paths, n, src, dst); status != pairServed {
		c.End()
		switch status {
		case pairOutOfRange:
			sp.TagStr("outcome", "bad_request")
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("pair %d->%d out of range [0,%d)", src, dst, n)})
		case pairSelf:
			writeJSON(w, http.StatusOK, doc)
		case pairBroken:
			sp.TagStr("outcome", "unroutable")
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{
				Error: fmt.Sprintf("no path %d->%d under epoch %d (%d dead links)", src, dst, st.Epoch, len(st.FailedLinks)),
			})
		}
		return
	}
	t := st.Topo
	cur := t.HostID(src)
	err = paths.Walk(src, dst, func(l topo.LinkID, up bool) {
		lk := &t.Links[l]
		to := t.Ports[lk.Lower].Node
		if up {
			to = t.Ports[lk.Upper].Node
		}
		doc.Hops = append(doc.Hops, HopDoc{
			Link: int(l),
			Up:   up,
			From: t.Node(cur).String(),
			To:   t.Node(to).String(),
		})
		cur = to
	})
	if err != nil {
		c.End()
		sp.TagStr("outcome", "error")
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	c.End()

	c = sp.Child("encode")
	writeJSON(w, http.StatusOK, doc)
	c.End()
	sp.TagNum("hops", float64(len(doc.Hops)))
}

func (m *Manager) handleOrder(w http.ResponseWriter, r *http.Request) {
	st := m.Current()
	writeJSON(w, http.StatusOK, OrderDoc{
		Schema: schema.Order,
		Epoch:  st.Epoch,
		Label:  st.Ordering.Label,
		HostOf: st.Ordering.HostOf,
	})
}

func (m *Manager) handleHSD(w http.ResponseWriter, r *http.Request) {
	st := m.Current()
	rep := st.HSD
	writeJSON(w, http.StatusOK, HSDDoc{
		Epoch:          st.Epoch,
		Engine:         st.Engine,
		Sequence:       rep.Sequence,
		Ordering:       rep.Ordering,
		Routing:        rep.Routing,
		Stages:         len(rep.Stages),
		MaxHSD:         rep.MaxHSD(),
		AvgMaxHSD:      rep.AvgMaxHSD(),
		ContentionFree: rep.ContentionFree(),
		SyncBandwidth:  rep.SyncEffectiveBandwidth(),
		FailedLinks:    len(st.FailedLinks),
		Unroutable:     len(st.Unroutable),
		BrokenPairs:    st.BrokenPairs,
	})
}

func (m *Manager) handleFabric(w http.ResponseWriter, r *http.Request) {
	st := m.Current()
	doc := fabric.NewDoc(st.Topo)
	doc.Routing = st.Routing
	fd := &fabric.FaultDoc{FailedLinks: []int{}, UnroutableHosts: []int{}, BrokenPairs: st.BrokenPairs}
	for _, l := range st.FailedLinks {
		fd.FailedLinks = append(fd.FailedLinks, int(l))
	}
	fd.UnroutableHosts = append(fd.UnroutableHosts, st.Unroutable...)
	doc.Faults = fd
	doc.HSD = &fabric.HSDDoc{
		Sequence:       st.HSD.Sequence,
		Ordering:       st.HSD.Ordering,
		Stages:         len(st.HSD.Stages),
		MaxHSD:         st.HSD.MaxHSD(),
		AvgMaxHSD:      st.HSD.AvgMaxHSD(),
		ContentionFree: st.HSD.ContentionFree(),
	}
	writeJSON(w, http.StatusOK, struct {
		Epoch  uint64 `json:"epoch"`
		Engine string `json:"engine"`
		*fabric.Doc
	}{st.Epoch, st.Engine, doc})
}

// faultsRequest is the POST /v1/faults body.
type faultsRequest struct {
	Fail       []int `json:"fail"`
	Revive     []int `json:"revive"`
	FailRandom int   `json:"fail_random"`
}

func (m *Manager) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req faultsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sent, err := m.InjectFaults(linkIDs(req.Fail), linkIDs(req.Revive), req.FailRandom)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		Accepted int    `json:"accepted"`
		Epoch    uint64 `json:"epoch"`
	}{sent, m.Current().Epoch})
}

// jobRequest is the POST /v1/jobs body. Every job rides the daemon's
// one engine: the body names no engine.
type jobRequest struct {
	Size    int  `json:"size"`
	Aligned bool `json:"aligned"`
}

func (m *Manager) handleJobAlloc(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Size < 1 {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("\"size\" %d: a job needs at least one host", req.Size)})
		return
	}
	a, err := m.AllocJob(req.Size, req.Aligned)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, jobDoc(a, m.cfg.Engine))
}

func (m *Manager) handleJobFree(w http.ResponseWriter, r *http.Request) {
	id, err := intParam(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	if err := m.FreeJob(sched.JobID(id)); err != nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Released int `json:"released"`
	}{id})
}

func (m *Manager) handleJobsList(w http.ResponseWriter, r *http.Request) {
	st := m.Current()
	jobs := make([]JobDoc, 0, len(st.Jobs))
	for _, j := range st.Jobs {
		jobs = append(jobs, jobDoc(j, st.Engine))
	}
	writeJSON(w, http.StatusOK, struct {
		Epoch uint64   `json:"epoch"`
		Jobs  []JobDoc `json:"jobs"`
	}{st.Epoch, jobs})
}

func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 0
	if s := q.Get("limit"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad \"limit\": " + err.Error()})
			return
		}
	}
	var recs []schema.Event
	var dropped uint64
	if s := q.Get("since_seq"); s != "" {
		since, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad \"since_seq\": " + err.Error()})
			return
		}
		recs, dropped = m.EventsSince(since, n)
	} else {
		recs, dropped = m.Events(n)
	}
	if recs == nil {
		recs = []schema.Event{}
	}
	writeJSON(w, http.StatusOK, schema.EventsDoc{
		Schema:  schema.Events,
		Epoch:   m.Current().Epoch,
		Dropped: dropped,
		Events:  recs,
	})
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := m.Current()
	writeJSON(w, http.StatusOK, struct {
		OK          bool   `json:"ok"`
		Epoch       uint64 `json:"epoch"`
		FailedLinks int    `json:"failed_links"`
	}{true, st.Epoch, len(st.FailedLinks)})
}

func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := m.cfg.Metrics.Snapshot()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}

// wantsPrometheus decides the /metrics representation: the explicit
// ?format=prometheus override wins, otherwise an Accept header naming
// text/plain or OpenMetrics selects the text exposition. JSON stays
// the default for bare curls and existing tooling.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func jobDoc(a *sched.Allocation, eng string) JobDoc {
	return JobDoc{
		ID:             int(a.ID),
		Size:           len(a.Hosts),
		Hosts:          a.Hosts,
		Engine:         eng,
		ContentionFree: a.ContentionFree,
		Isolated:       a.Isolated,
	}
}

func linkIDs(in []int) []topo.LinkID {
	out := make([]topo.LinkID, len(in))
	for i, l := range in {
		out[i] = topo.LinkID(l)
	}
	return out
}

// decodeBody decodes a request's JSON body into v, refusing a field v
// does not have and anything after the one value, and answers 400 when
// it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, end := dec.Token(); end != io.EOF {
			err = fmt.Errorf("data after the request object")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

// notServed is the refusal of an engine name that is not the one
// snapshot st serves, for both serving protocols.
func notServed(name string, st *FabricState) string {
	return fmt.Sprintf("engine %q is not served: this daemon routes with %q", name, st.Engine)
}

func intParam(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %q: %v", name, err)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

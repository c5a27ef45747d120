package fmgr

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/wire"
)

// MaxWirePairs bounds one pairs-mode RouteSetReq's pair count before
// any resolution work. It is a request-size guard only; the response
// byte budget is enforced separately at encode time, where a batch
// whose answer would exceed wire.MaxPayload is refused with
// CodeBadRequest (and an oversized precomputed job set is stored as a
// CodeInternal frame — see encodeJobFrame).
const MaxWirePairs = 1 << 22

// ServeWire runs the binary protocol on one connection: a loop of
// length-prefixed request frames answered from the current snapshot.
// The connection is tracked by the manager and force-closed by Close,
// so a draining daemon never leaks serving goroutines. Every request is
// observed through the fmgr_wire RED family, mirroring the HTTP
// middleware.
func (m *Manager) ServeWire(conn net.Conn) {
	if !m.trackWire(conn) {
		conn.Close()
		return
	}
	defer m.untrackWire(conn)
	defer conn.Close()
	// Request payloads are read into, and answers built in, scratch the
	// connection keeps from one request to the next (wire.Retain bounds
	// what it keeps); precomputed frames bypass buf.
	fr := wire.NewReader(bufio.NewReaderSize(conn, 64<<10))
	var buf []byte
	for {
		msg, err := fr.ReadMessage()
		if err != nil {
			return // EOF, hangup or garbage: either way the conn is done
		}
		start := time.Now()
		out, ep, code := m.wireRespond(&buf, msg)
		_, err = conn.Write(out)
		buf = wire.Retain(buf)
		if err != nil {
			ep.Observe(0, time.Since(start))
			return
		}
		ep.Observe(code, time.Since(start))
	}
}

// wireRespond returns the response frame for one request, with the RED
// endpoint and a status code for observation (HTTP-style classes: 200
// served, 304 not-modified, 4xx refused, 500 internal). An answer built
// for this request lands in *buf, the connection's reusable scratch; the
// snapshot's precomputed order and job frames are returned as they are,
// shared and immutable, so a connection never pins a private copy of a
// whole-job answer.
func (m *Manager) wireRespond(buf *[]byte, msg wire.Message) ([]byte, *obs.REDEndpoint, int) {
	build := func(resp wire.Message) []byte {
		*buf = wire.AppendFrame((*buf)[:0], resp)
		return *buf
	}
	switch req := msg.(type) {
	case wire.EpochReq:
		st := m.Current()
		return build(&wire.EpochResp{Epoch: st.Epoch, Engine: st.Engine}), m.wireEpochEP, 200
	case wire.OrderReq:
		return m.Current().wireOrder, m.wireOrderEP, 200
	case *wire.RouteSetReq:
		st := m.Current()
		if !req.ByJob {
			var code int
			*buf, code = m.wireRouteSet((*buf)[:0], st, req)
			return *buf, m.wireRouteSetEP, code
		}
		// Job mode is a pure cache hit on the frame precomputed at
		// placement and at every reroute. Existence is checked before the
		// epoch hint, as in wireRouteSet. The hint is held against the
		// frame's stamp, not the snapshot's epoch: epochs that placed or
		// freed other jobs left these routes as they were, and a client
		// that has seen the stamp's epoch is told so in ten bytes, with the
		// epoch to pin.
		jw, ok := st.JobRouteSets[sched.JobID(req.Job)]
		switch {
		case !ok:
			return build(&wire.ErrorResp{
				Code: wire.CodeNotFound,
				Msg:  fmt.Sprintf("job %d has no route set in epoch %d", req.Job, st.Epoch),
			}), m.wireRouteSetEP, 404
		case req.EpochHint != 0 && req.EpochHint >= jw.Epoch:
			return build(&wire.NotModified{Epoch: st.Epoch}), m.wireRouteSetEP, 304
		}
		m.mWireRoutes.Add(int64(jw.Pairs))
		return jw.Frame, m.wireRouteSetEP, jw.Code
	default:
		// A well-formed frame of a type the server does not answer
		// (e.g. a response type): refuse politely, keep the conn.
		return build(&wire.ErrorResp{
			Code: wire.CodeBadRequest,
			Msg:  fmt.Sprintf("unexpected message type 0x%02x", uint8(msg.Type())),
		}), nil, 400
	}
}

// wireRouteSet answers one pairs-mode RouteSetReq from snapshot st into
// dst. The request is validated first — pair cap and range, engine —
// and only then does epoch negotiation short-circuit (a matching hint
// costs one NotModified frame and no path read). The order matters: a
// NotModified must certify that the server could serve the request
// under this epoch, or a client whose hint happens to match gets its
// cache "validated" for state the server no longer has. After that each
// pair's record is written into the frame straight from the engine's
// compiled arena; no RouteSetResp is built.
func (m *Manager) wireRouteSet(dst []byte, st *FabricState, req *wire.RouteSetReq) ([]byte, int) {
	refuse := func(code uint8, status int, format string, args ...interface{}) ([]byte, int) {
		return wire.AppendFrame(dst, &wire.ErrorResp{Code: code, Msg: fmt.Sprintf(format, args...)}), status
	}
	if len(req.Pairs) > MaxWirePairs {
		return refuse(wire.CodeBadRequest, 400, "%d pairs exceed the %d per-request cap", len(req.Pairs), MaxWirePairs)
	}
	engName, paths, ok := st.tables(req.Engine)
	if !ok {
		return refuse(wire.CodeNotFound, 404, "%s", notServed(engName, st))
	}
	n := st.Topo.NumHosts()
	for _, p := range req.Pairs {
		if pairStatus(paths, n, int(p[0]), int(p[1])) == pairOutOfRange {
			return refuse(wire.CodeBadRequest, 400, "pair %d->%d out of range [0,%d)", p[0], p[1], n)
		}
	}
	if req.EpochHint != 0 && req.EpochHint == st.Epoch {
		return wire.AppendFrame(dst, &wire.NotModified{Epoch: st.Epoch}), 304
	}
	if paths.Stride() > wire.MaxStride {
		return refuse(wire.CodeInternal, 500, "engine %q paths run to %d hops, past what a pair record carries", engName, paths.Stride()+1)
	}
	out := wire.BeginRouteSet(dst, st.Epoch, engName, paths.Label(), len(req.Pairs))
	out = appendPairs(out, paths, req.Pairs)
	out, err := wire.EndFrame(out, len(dst))
	if err != nil {
		return refuse(wire.CodeBadRequest, 400, "%d-pair batch encodes past the %d-byte frame cap; split the request", len(req.Pairs), wire.MaxPayload)
	}
	m.mWireRoutes.Add(int64(len(req.Pairs)))
	return out, 200
}

// appendPairs appends the record of every requested pair — all in range,
// with tails of at most wire.MaxStride hops — from the arena's cells,
// read through Tails a batch of pairs at a time (the tails of self and
// broken pairs are read too, and ignored).
func appendPairs(out []byte, paths *route.Compiled, pairs [][2]uint32) []byte {
	const batch = 32
	var rows, dsts [batch]int32
	var cells [batch * wire.MaxStride]uint32
	n, stride := paths.Topology().NumHosts(), paths.Stride()
	for len(pairs) > 0 {
		chunk := pairs[:min(batch, len(pairs))]
		pairs = pairs[len(chunk):]
		for i, p := range chunk {
			row, _, _ := paths.Row(int(p[0]))
			rows[i], dsts[i] = int32(row), int32(p[1])
		}
		paths.Tails(cells[:], rows[:len(chunk)], dsts[:len(chunk)])
		for i, p := range chunk {
			switch pairStatus(paths, n, int(p[0]), int(p[1])) {
			case pairBroken:
				out = wire.AppendUnserved(out, p[0], p[1]) // the binary twin of the JSON 503
			case pairSelf:
				out = wire.AppendPair(out, p[0], p[1], wire.NoHead, nil)
			default:
				_, head, _ := paths.Row(int(p[0]))
				out = wire.AppendPair(out, p[0], p[1], uint32(head), cells[i*stride:i*stride+stride])
			}
		}
	}
	return out
}

// trackWire registers a live wire connection; false means the manager
// is closed and the conn must not be served.
func (m *Manager) trackWire(c net.Conn) bool {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if m.wireClosed {
		return false
	}
	m.wireConns[c] = struct{}{}
	m.mWireConns.Add(1)
	return true
}

func (m *Manager) untrackWire(c net.Conn) {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if _, ok := m.wireConns[c]; ok {
		delete(m.wireConns, c)
		m.mWireConns.Add(-1)
	}
}

// closeWireConns force-closes every live wire connection; called from
// Close so ServeWire loops blocked in a read unblock and exit.
func (m *Manager) closeWireConns() {
	m.wireMu.Lock()
	m.wireClosed = true
	conns := make([]net.Conn, 0, len(m.wireConns))
	for c := range m.wireConns {
		conns = append(conns, c)
	}
	m.wireMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

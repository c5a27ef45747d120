// Package wire is the daemon's compact binary protocol: the batched,
// epoch-stamped route-serving format ftfabricd speaks next to its JSON
// API, on the same listener. Where GET /v1/route resolves one src→dst
// pair per HTTP round-trip, one RouteSetReq resolves an entire job's
// src→dst set in a single frame, with hops served straight out of the
// compiled arena as packed path entries: pair by pair in fixed-width
// records for an explicit batch (RouteSetResp), in the arena's own
// head ++ tail factoring for a placed job's whole set (RouteSetFactored).
//
// Framing (all integers little-endian, varints unsigned LEB128):
//
//	offset 0  magic   [2]byte  {0xFA, 0xB1} — never a valid HTTP method
//	offset 2  version uint8    (3)
//	offset 3  type    uint8    message type
//	offset 4  length  uint32   payload bytes (<= MaxPayload)
//	offset 8  payload
//
// The first magic byte is what lets one listener serve both protocols:
// no HTTP request line can begin with 0xFA, so a connection's first
// byte decides which handler owns it (see Split).
//
// Message payloads are varint/byte sequences, except the pair lists of
// pairs mode, which are fixed-width records (see RouteSetReq and
// PairRoute) read with plain loads — no reflection, no field tags —
// and every decoder is strictly bounds-checked: a count
// can never exceed the bytes that remain, so malformed or truncated
// frames fail fast without large allocations. FuzzWireDecode and the
// byte-exact fixtures under testdata/ pin both properties; protocol
// drift is a test failure, not a silent incompatibility.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fattree/internal/par"
)

// Protocol constants.
const (
	// Magic0 and Magic1 open every frame. Magic0 doubles as the
	// protocol-sniffing byte in Split.
	Magic0 = 0xFA
	Magic1 = 0xB1
	// Version is the only wire version this package speaks; there is no
	// negotiation (a peer on another version gets ErrBadVersion). 2 = a
	// job-mode RouteSetReq is answered factored; 3 = the pair lists of
	// pairs mode are fixed-width records.
	Version = 3
	// HeaderSize is the fixed frame header length.
	HeaderSize = 8
	// MaxPayload bounds a frame's payload: large enough for a full
	// 100k-endpoint order table or a whole-job route set, small enough
	// that a hostile length field cannot balloon memory.
	MaxPayload = 1 << 26 // 64 MiB
	// MaxStride bounds a factored route set's tail length: an up*/down*
	// path climbs and descends at most h levels, and a tree whose hosts
	// fit the wire's uint32 ids has h <= 32. A pair of a RouteSetResp
	// carries at most a head and a full tail, MaxStride+1 hops.
	MaxStride = 64
	// MaxJobHosts bounds a factored route set's host list, because the
	// receiver expands it to n(n-1) pairs: 16.7M at the bound, about
	// what a MaxPayload pair list could carry.
	MaxJobHosts = 1 << 12
	// NoHead is the FactoredHost.Head of a host whose paths are all tail.
	NoHead = ^uint32(0)
)

// MsgType identifies a frame's payload encoding.
type MsgType uint8

// Message types. Requests are odd-ish conventions aside, every response
// carries the epoch of the snapshot that produced it, so a client can
// pin cached state to an epoch and detect replica skew.
const (
	// TEpochReq asks for the serving epoch: the cheap revalidation
	// probe. Empty payload.
	TEpochReq MsgType = 0x01
	// TEpochResp answers with the current epoch and active engine.
	TEpochResp MsgType = 0x02
	// TRouteSetReq resolves a batch of src→dst pairs (or a placed
	// job's whole pair set) in one round-trip.
	TRouteSetReq MsgType = 0x03
	// TRouteSetResp carries the epoch-stamped batched answer of a
	// pairs-mode RouteSetReq.
	TRouteSetResp MsgType = 0x04
	// TNotModified short-circuits a RouteSetReq whose EpochHint still
	// matches the serving epoch: the client's cached set remains valid.
	TNotModified MsgType = 0x05
	// TOrderReq asks for the MPI node ordering. Empty payload.
	TOrderReq MsgType = 0x06
	// TOrderResp carries the epoch-stamped rank→host table.
	TOrderResp MsgType = 0x07
	// TError reports a request-level failure.
	TError MsgType = 0x08
	// TRouteSetFactored is the answer of a job-mode RouteSetReq: the
	// job's whole pair set in the arena's own head ++ tail factoring.
	TRouteSetFactored MsgType = 0x09
)

// Error codes carried by TError. Code 3 is not used: an unroutable pair
// is not an error, it travels as an unserved record.
const (
	CodeBadRequest = 1 // malformed or out-of-range request
	CodeNotFound   = 2 // unknown engine or job
	CodeInternal   = 4 // server-side failure
)

// Decode errors.
var (
	// ErrBadMagic marks a frame that does not open with the protocol
	// magic — usually an HTTP request hitting the wrong handler.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion marks an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrTruncated marks a payload that ends before its own fields do.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTooLarge marks a frame whose declared length exceeds
	// MaxPayload.
	ErrTooLarge = errors.New("wire: frame exceeds MaxPayload")
	// ErrUnknownType marks an unrecognized message type byte.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrTrailing marks extra bytes after a fully decoded payload.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
	// ErrMalformed marks a payload whose fields contradict each other
	// (an index past its table, an unsorted list).
	ErrMalformed = errors.New("wire: malformed payload")
)

// Message is one protocol message; every concrete type knows its frame
// type byte and how to append its payload encoding.
type Message interface {
	Type() MsgType
	appendPayload(dst []byte) []byte
}

// EpochReq is the cheap epoch probe (empty payload).
type EpochReq struct{}

// Type implements Message.
func (EpochReq) Type() MsgType                   { return TEpochReq }
func (EpochReq) appendPayload(dst []byte) []byte { return dst }

// EpochResp answers an EpochReq.
type EpochResp struct {
	Epoch  uint64
	Engine string
}

// Type implements Message.
func (*EpochResp) Type() MsgType { return TEpochResp }

func (m *EpochResp) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Epoch)
	return appendString(dst, m.Engine)
}

// RouteSetReq resolves many pairs at once. Exactly one of the two
// shapes is used per request: ByJob selects the whole pair set of a
// placed job (precomputed server-side at placement, so the lookup is a
// pure cache hit); otherwise Pairs lists explicit src→dst pairs.
type RouteSetReq struct {
	// EpochHint, when non-zero, asks the server to answer NotModified
	// if its serving epoch still equals the hint — the conditional
	// fetch that makes client caches cheap to revalidate.
	EpochHint uint64
	// Engine selects the routing engine's tables ("" = active engine).
	Engine string
	// ByJob selects job mode; Job is the placement id.
	ByJob bool
	Job   uint64
	// Pairs is the explicit batch, pairs-mode only: on the wire a varint
	// count, then one fixed-width record (src u32, dst u32) per pair.
	Pairs [][2]uint32
}

// Type implements Message.
func (*RouteSetReq) Type() MsgType { return TRouteSetReq }

func (m *RouteSetReq) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.EpochHint)
	if m.ByJob {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendString(dst, m.Engine)
	if m.ByJob {
		return binary.AppendUvarint(dst, m.Job)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Pairs)))
	at := len(dst)
	dst = slices.Grow(dst, reqRecord*len(m.Pairs))[:at+reqRecord*len(m.Pairs)]
	for _, p := range m.Pairs {
		binary.LittleEndian.PutUint32(dst[at:], p[0])
		binary.LittleEndian.PutUint32(dst[at+4:], p[1])
		at += reqRecord
	}
	return dst
}

// PairRoute is one resolved pair of a RouteSetResp. Hops are the packed
// path entries of the compiled arena (link id shifted left once, bit 0
// = up); OK=false marks a pair the serving epoch cannot route (broken
// by faults or an unroutable host) — the binary twin of the JSON 503.
// On the wire a pair is one fixed-width record, src u32, dst u32 and a
// hop-count byte (at most MaxStride+1, or 0xFF for OK=false), followed
// by that many u32 hops.
type PairRoute struct {
	Src, Dst uint32
	OK       bool
	Hops     []uint32
}

// Sizes and marks of the fixed-width pair records.
const (
	reqRecord  = 8             // src, dst
	pairRecord = 9             // src, dst, hop count
	maxHops    = MaxStride + 1 // a head and a full tail
	unserved   = 0xFF          // hop-count byte of an OK=false pair
)

// RouteSetResp is the batched, epoch-stamped answer. All pairs were
// resolved against exactly one snapshot: one epoch, one engine's
// tables, never a mix.
type RouteSetResp struct {
	Epoch   uint64
	Engine  string
	Routing string
	Pairs   []PairRoute
}

// Type implements Message.
func (*RouteSetResp) Type() MsgType { return TRouteSetResp }

func (m *RouteSetResp) appendPayload(dst []byte) []byte {
	dst = appendRouteSetHead(dst, m.Epoch, m.Engine, m.Routing, len(m.Pairs))
	for i := range m.Pairs {
		if p := &m.Pairs[i]; p.OK {
			var b []byte
			dst, b = appendServed(dst, p.Src, p.Dst, len(p.Hops))
			for i, h := range p.Hops {
				binary.LittleEndian.PutUint32(b[4*i:], h)
			}
		} else {
			dst = AppendUnserved(dst, p.Src, p.Dst)
		}
	}
	return dst
}

func appendRouteSetHead(dst []byte, epoch uint64, engine, routing string, pairs int) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = appendString(dst, engine)
	dst = appendString(dst, routing)
	return binary.AppendUvarint(dst, uint64(pairs))
}

// BeginRouteSet opens a RouteSetResp frame for a producer that writes
// its pairs straight into the frame instead of building the message:
// it appends the frame header and the payload fields ahead of the pair
// records. The caller appends exactly pairs records with AppendPair and
// AppendUnserved, then closes the frame with EndFrame. AppendFrame of
// the equivalent RouteSetResp yields the same bytes.
func BeginRouteSet(dst []byte, epoch uint64, engine, routing string, pairs int) []byte {
	return appendRouteSetHead(appendHeader(dst, TRouteSetResp), epoch, engine, routing, pairs)
}

// AppendPair appends the record of one served pair read straight from a
// compiled arena: head is its first hop (NoHead when the path is all
// tail), tail the cells of the rest — each a hop plus one, 0 for no hop.
// More than MaxStride+1 hops cannot be encoded and panic, rather than put
// a truncated count on the wire; a producer whose tails are not bounded
// by construction checks first.
func AppendPair(dst []byte, src, to, head uint32, tail []uint32) []byte {
	nh := 0
	if head != NoHead {
		nh++
	}
	for _, e := range tail {
		if e != 0 {
			nh++
		}
	}
	dst, b := appendServed(dst, src, to, nh)
	if head != NoHead {
		binary.LittleEndian.PutUint32(b, head)
		b = b[4:]
	}
	for _, e := range tail {
		if e != 0 {
			binary.LittleEndian.PutUint32(b, e-1)
			b = b[4:]
		}
	}
	return dst
}

// appendServed appends the record of a served pair of nh hops and
// returns the room left for them.
func appendServed(dst []byte, src, to uint32, nh int) (out, hops []byte) {
	if nh > maxHops {
		panic(fmt.Sprintf("wire: pair %d->%d has %d hops, a record carries at most %d", src, to, nh, maxHops))
	}
	dst = appendPairRecord(dst, src, to, byte(nh), 4*nh)
	return dst, dst[len(dst)-4*nh:]
}

// AppendUnserved appends the record of a pair the epoch cannot route.
func AppendUnserved(dst []byte, src, to uint32) []byte {
	return appendPairRecord(dst, src, to, unserved, 0)
}

// appendPairRecord appends one pair record and room for its hops.
func appendPairRecord(dst []byte, src, to uint32, count byte, hopBytes int) []byte {
	at := len(dst)
	dst = slices.Grow(dst, pairRecord+hopBytes)[:at+pairRecord+hopBytes]
	binary.LittleEndian.PutUint32(dst[at:], src)
	binary.LittleEndian.PutUint32(dst[at+4:], to)
	dst[at+8] = count
	return dst
}

// FactoredHost is one job host of a RouteSetFactored: its fabric index,
// the tail row it reads and its first hop (NoHead when the row is walked
// from the host itself).
type FactoredHost struct {
	Host, Row, Head uint32
}

// RouteSetFactored is the job-mode answer: every ordered pair among
// Hosts, shipped as the compiled arena stores it. Routing is
// destination-based, so hosts entering the fabric through one switch
// share everything after their first hop: the path of pair (i, j) is
// Hosts[i].Head ++ tail(Hosts[i].Row, j), and the message carries one
// tail per (row, host) instead of one path per pair. Tail t = row*n+j
// is Tails[TailOff[t]:TailOff[t+1]], at most Stride entries. Broken
// lists the unserved pairs as i*n+j, strictly increasing. Expand turns
// it into the pair list once, its hops in one slab, of which each
// chunk of sources fills a window of its own; ExpandFrom refills the
// columns a later epoch moved, each into a slab of its own, so a
// patched list retains at most the cold expansion's slab and one slab
// per column refilled since, and none of the cold slab once every
// column has been refilled. It is not meant to be read in place.
type RouteSetFactored struct {
	Epoch   uint64
	Engine  string
	Routing string
	Stride  uint32
	Rows    uint32
	Hosts   []FactoredHost
	TailOff []uint32 // Rows*len(Hosts)+1 offsets into Tails, from 0
	Tails   []uint32
	Broken  []uint64
}

// Type implements Message.
func (*RouteSetFactored) Type() MsgType { return TRouteSetFactored }

func (m *RouteSetFactored) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = appendString(dst, m.Engine)
	dst = appendString(dst, m.Routing)
	dst = binary.AppendUvarint(dst, uint64(len(m.Hosts)))
	dst = binary.AppendUvarint(dst, uint64(m.Rows))
	dst = binary.AppendUvarint(dst, uint64(m.Stride))
	for _, h := range m.Hosts {
		dst = binary.AppendUvarint(dst, uint64(h.Host))
		dst = binary.AppendUvarint(dst, uint64(h.Row))
		dst = binary.AppendUvarint(dst, uint64(h.Head+1)) // NoHead wraps to 0
	}
	for t := 1; t < len(m.TailOff); t++ {
		tail := m.Tails[m.TailOff[t-1]:m.TailOff[t]]
		dst = binary.AppendUvarint(dst, uint64(len(tail)))
		for _, e := range tail {
			dst = binary.AppendUvarint(dst, uint64(e))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Broken)))
	for _, b := range m.Broken {
		dst = binary.AppendUvarint(dst, b)
	}
	return dst
}

// expandChunk is how many sources Expand hands one worker at a time.
const expandChunk = 16

// Expand materializes the pair list the message stands for — every
// ordered src != dst pair of Hosts, source-major in Hosts order — into
// one slab of pairs and one slab of hops, made side by side on two
// goroutines. The sources are split into chunks of expandChunk, filled
// over par.Do by GOMAXPROCS workers: a prefix sum of each source's hops
// (its head per destination and its row of tails) gives a chunk its
// window of the hop slab, a binary search its place in Broken, and the
// chunk is then written in pair order — a source's row of tails read
// front to back, Broken, in the same i*n+j order, merged as it goes,
// each pair written once into the zeroed slab. ExpandFrom refills a
// column into a slab of its own, so a patched list keeps at most this
// slab and one slab per column refilled since. m must be consistent, as
// every decoded message is: the merge relies on Broken listing no
// diagonal pair.
func (m *RouteSetFactored) Expand() *RouteSetResp {
	n := len(m.Hosts)
	// hopAt[i] is where source i's hops start: the sources before it,
	// the few of their unread diagonal and broken pairs included.
	hopAt := make([]int, n+1)
	for i, h := range m.Hosts {
		hopAt[i+1] = hopAt[i] + int(m.TailOff[int(h.Row+1)*n]-m.TailOff[int(h.Row)*n])
		if h.Head != NoHead {
			hopAt[i+1] += n
		}
	}
	// The two slabs are made side by side: each make zeroes its
	// megabytes and pays the GC assist they owe, which on a cold client
	// is most of an expansion, and neither needs the other.
	hopSlab := make(chan []uint32, 1)
	go func() { hopSlab <- make([]uint32, hopAt[n]) }()
	resp := &RouteSetResp{Epoch: m.Epoch, Engine: m.Engine, Routing: m.Routing, Pairs: make([]PairRoute, n*(n-1))}
	hops := <-hopSlab
	par.Do((n+expandChunk-1)/expandChunk, 0, nil, func(_ struct{}, c int) error {
		m.fillSources(resp.Pairs, hops, hopAt, c*expandChunk, min(c*expandChunk+expandChunk, n))
		return nil
	})
	return resp
}

// fillSources writes the pairs of sources [lo, hi) into the source-major
// pair slab, their hops into the slab's windows from hopAt[lo]: Expand's
// unit of work.
func (m *RouteSetFactored) fillSources(pairs []PairRoute, hops []uint32, hopAt []int, lo, hi int) {
	n := len(m.Hosts)
	x, _ := slices.BinarySearch(m.Broken, uint64(lo*n))
	broken, k, at := m.Broken[x:], lo*(n-1), hopAt[lo]
	for i := lo; i < hi; i++ {
		h := m.Hosts[i]
		off := m.TailOff[int(h.Row)*n:][:n+1] // the source's row of tails
		for j, to := range m.Hosts {
			if i == j {
				continue
			}
			p := &pairs[k]
			k++
			p.Src, p.Dst = h.Host, to.Host
			if len(broken) > 0 && broken[0] == uint64(i*n+j) {
				broken = broken[1:]
				continue
			}
			start := at
			if h.Head != NoHead {
				hops[at] = h.Head
				at++
			}
			for _, e := range m.Tails[off[j]:off[j+1]] {
				hops[at] = e
				at++
			}
			p.OK, p.Hops = true, hops[start:at:at]
		}
	}
}

// ExpandFrom is Expand for a holder of prevSet, the expansion of prev:
// it copies prevSet's pair slab and refills only the destination
// columns in which m differs from prev — a tail of any row, or a pair
// that is broken in one and not the other — so a fault that moved a few
// columns costs a copy and those columns, not every pair. Untouched
// columns share their hop memory with prevSet, which is never written:
// both sets are read-only. A difference in shape (hosts, heads, rows,
// stride) falls back to Expand.
func (m *RouteSetFactored) ExpandFrom(prev *RouteSetFactored, prevSet *RouteSetResp) *RouteSetResp {
	n := len(m.Hosts)
	if m.Rows != prev.Rows || m.Stride != prev.Stride || !slices.Equal(m.Hosts, prev.Hosts) || len(prevSet.Pairs) != n*(n-1) {
		return m.Expand()
	}
	dirty := make([]bool, n)
	for t := 0; t+1 < len(m.TailOff); t++ { // tail t is that of (row t/n, destination t%n)
		if !slices.Equal(m.Tails[m.TailOff[t]:m.TailOff[t+1]], prev.Tails[prev.TailOff[t]:prev.TailOff[t+1]]) {
			dirty[t%n] = true
		}
	}
	for a, b := m.Broken, prev.Broken; len(a) > 0 || len(b) > 0; {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			dirty[a[0]%uint64(n)], a = true, a[1:]
		case len(a) == 0 || b[0] < a[0]:
			dirty[b[0]%uint64(n)], b = true, b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	resp := &RouteSetResp{Epoch: m.Epoch, Engine: m.Engine, Routing: m.Routing, Pairs: make([]PairRoute, len(prevSet.Pairs))}
	copy(resp.Pairs, prevSet.Pairs)
	for j, moved := range dirty {
		if moved {
			m.fillColumn(resp.Pairs, j)
		}
	}
	return resp
}

// fillColumn writes destination column j — the pair (i, j) of every
// source i != j — into the source-major pair slab, its hops in one
// fresh slab: ExpandFrom's unit of replacement.
func (m *RouteSetFactored) fillColumn(pairs []PairRoute, j int) {
	n, to, broken := len(m.Hosts), m.Hosts[j].Host, m.Broken
	total := 0 // the column's hops, plus the few of the unread diagonal and the broken pairs
	for _, h := range m.Hosts {
		t := int(h.Row)*n + j
		total += int(m.TailOff[t+1] - m.TailOff[t])
		if h.Head != NoHead {
			total++
		}
	}
	hops, at := make([]uint32, total), 0
	for i, h := range m.Hosts {
		if i == j {
			continue
		}
		k := i*(n-1) + j
		if j > i {
			k--
		}
		p := &pairs[k]
		*p = PairRoute{Src: h.Host, Dst: to}
		if len(broken) > 0 {
			x, found := slices.BinarySearch(broken, uint64(i*n+j))
			if broken = broken[x:]; found {
				continue
			}
		}
		start, t := at, int(h.Row)*n+j
		if h.Head != NoHead {
			hops[at] = h.Head
			at++
		}
		at += copy(hops[at:], m.Tails[m.TailOff[t]:m.TailOff[t+1]])
		p.OK, p.Hops = true, hops[start:at:at]
	}
}

// NotModified answers a RouteSetReq whose EpochHint matched: the
// client's pinned set is still the serving truth.
type NotModified struct {
	Epoch uint64
}

// Type implements Message.
func (*NotModified) Type() MsgType { return TNotModified }

func (m *NotModified) appendPayload(dst []byte) []byte {
	return binary.AppendUvarint(dst, m.Epoch)
}

// OrderReq asks for the MPI node ordering (empty payload).
type OrderReq struct{}

// Type implements Message.
func (OrderReq) Type() MsgType                   { return TOrderReq }
func (OrderReq) appendPayload(dst []byte) []byte { return dst }

// OrderResp carries the epoch-stamped rank→host table.
type OrderResp struct {
	Epoch  uint64
	Label  string
	HostOf []uint32
}

// Type implements Message.
func (*OrderResp) Type() MsgType { return TOrderResp }

func (m *OrderResp) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = appendString(dst, m.Label)
	dst = binary.AppendUvarint(dst, uint64(len(m.HostOf)))
	for _, h := range m.HostOf {
		dst = binary.AppendUvarint(dst, uint64(h))
	}
	return dst
}

// ErrorResp reports a request-level failure without closing the
// connection.
type ErrorResp struct {
	Code uint8
	Msg  string
}

// Type implements Message.
func (*ErrorResp) Type() MsgType { return TError }

func (m *ErrorResp) appendPayload(dst []byte) []byte {
	dst = append(dst, m.Code)
	return appendString(dst, m.Msg)
}

// Error makes ErrorResp usable as a Go error on the client side.
func (m *ErrorResp) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", m.Code, m.Msg)
}

// DecodePayload decodes one payload of the given type. The whole
// payload must be consumed; trailing bytes are an error (they would
// mean encoder and decoder disagree about the format).
func DecodePayload(t MsgType, payload []byte) (Message, error) {
	d := decoder{b: payload}
	var m Message
	switch t {
	case TEpochReq:
		m = EpochReq{}
	case TEpochResp:
		r := &EpochResp{}
		r.Epoch = d.uvarint()
		r.Engine = d.str()
		m = r
	case TRouteSetReq:
		r := &RouteSetReq{}
		r.EpochHint = d.uvarint()
		mode := d.byte()
		r.Engine = d.str()
		switch mode {
		case 1:
			r.ByJob = true
			r.Job = d.uvarint()
		case 0:
			n := d.count(reqRecord)
			if d.err == nil {
				// count has checked that n records are present.
				r.Pairs = make([][2]uint32, n)
				for i := range r.Pairs {
					r.Pairs[i] = [2]uint32{binary.LittleEndian.Uint32(d.b), binary.LittleEndian.Uint32(d.b[4:])}
					d.b = d.b[reqRecord:]
				}
			}
		default:
			return nil, fmt.Errorf("%w: route-set mode %d", ErrTruncated, mode)
		}
		m = r
	case TRouteSetResp:
		m = d.routeSetResp()
	case TRouteSetFactored:
		m = d.routeSetFactored()
	case TNotModified:
		r := &NotModified{}
		r.Epoch = d.uvarint()
		m = r
	case TOrderReq:
		m = OrderReq{}
	case TOrderResp:
		r := &OrderResp{}
		r.Epoch = d.uvarint()
		r.Label = d.str()
		n := d.count(1)
		if d.err == nil {
			r.HostOf = make([]uint32, n)
			for i := range r.HostOf {
				r.HostOf[i] = d.u32()
			}
		}
		m = r
	case TError:
		r := &ErrorResp{}
		r.Code = d.byte()
		r.Msg = d.str()
		m = r
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownType, uint8(t))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d byte(s)", ErrTrailing, len(d.b))
	}
	return m, nil
}

// appendString appends a uvarint length followed by the raw bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder consumes a payload front to back, latching the first error;
// after an error every accessor returns a zero value, so decode paths
// can run straight-line and check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// u32 reads a uvarint that must fit uint32 (host indices, packed path
// entries).
func (d *decoder) u32() uint32 {
	v := d.uvarint()
	if v > 0xFFFFFFFF {
		d.fail()
		return 0
	}
	return uint32(v)
}

// count reads an element count and rejects any value that could not
// possibly fit in the remaining bytes at minBytes per element — the
// guard that keeps a hostile count from allocating gigabytes.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)/minBytes) {
		d.fail()
		return 0
	}
	return int(v)
}

// str reads a uvarint-length-prefixed string, bounds-checked against
// the remaining payload.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// must latches ErrMalformed unless ok: the field parsed, but contradicts
// another.
func (d *decoder) must(ok bool, what string) {
	if !ok && d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
}

// routeSetResp decodes a RouteSetResp: bounds-checked loads of its
// fixed-width records into two slabs, one of pairs and one of hops.
func (d *decoder) routeSetResp() *RouteSetResp {
	r := &RouteSetResp{Epoch: d.uvarint(), Engine: d.str(), Routing: d.str()}
	n := d.count(pairRecord)
	if d.err != nil {
		return r
	}
	r.Pairs = make([]PairRoute, n)
	// Every pair's hops are windows of one slab. The bytes still unread
	// are n records and four per hop, which sizes the slab before any hop
	// is read; a payload whose counts claim more is cut short somewhere.
	hops := make([]uint32, (len(d.b)-pairRecord*n)/4)
	b, at := d.b, 0
	for i := range r.Pairs {
		if len(b) < pairRecord {
			d.fail()
			return r
		}
		p := &r.Pairs[i]
		p.Src, p.Dst = binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
		nh := int(b[8])
		b = b[pairRecord:]
		if nh == unserved {
			continue
		}
		d.must(nh <= maxHops, "pair hop count")
		if d.err != nil || 4*nh > len(b) || nh > len(hops)-at {
			d.fail()
			return r
		}
		h := hops[at : at+nh : at+nh]
		for k := range h {
			h[k] = binary.LittleEndian.Uint32(b[4*k:])
		}
		p.OK, p.Hops = true, h
		b, at = b[4*nh:], at+nh
	}
	d.b = b
	return r
}

// routeSetFactored decodes and cross-checks a RouteSetFactored, so that
// Expand can index an accepted message without looking. Every table is
// sized by bytes still unread: a tail costs at least its length byte
// and an entry at least one more.
func (d *decoder) routeSetFactored() *RouteSetFactored {
	r := &RouteSetFactored{Epoch: d.uvarint(), Engine: d.str(), Routing: d.str()}
	n := d.count(3) // host, row, head
	r.Rows, r.Stride = d.u32(), d.u32()
	d.must(n <= MaxJobHosts && int(r.Rows) <= n && r.Stride <= MaxStride, "factored set dimensions")
	if d.err != nil {
		return r
	}
	r.Hosts = make([]FactoredHost, n)
	for i := range r.Hosts {
		r.Hosts[i] = FactoredHost{Host: d.u32(), Row: d.u32(), Head: d.u32() - 1}
		d.must(r.Hosts[i].Row < r.Rows, "host reads a row past the row count")
	}
	tails := int(r.Rows) * n
	if d.err != nil || tails > len(d.b) {
		d.fail()
		return r
	}
	r.TailOff = make([]uint32, tails+1)
	r.Tails = make([]uint32, 0, min(len(d.b)-tails, tails*int(r.Stride)))
	for t := 1; t <= tails; t++ {
		l := d.count(1)
		d.must(l <= int(r.Stride), "tail longer than the stride")
		for ; l > 0 && d.err == nil; l-- {
			r.Tails = append(r.Tails, d.u32())
		}
		r.TailOff[t] = uint32(len(r.Tails))
	}
	r.Broken = make([]uint64, d.count(1))
	for k := range r.Broken {
		b, nn := d.uvarint(), uint64(n)
		d.must(b < nn*nn && b/nn != b%nn && (k == 0 || b > r.Broken[k-1]), "broken pair index")
		r.Broken[k] = b
	}
	return r
}

// Package wire is the daemon's compact binary protocol: the batched,
// epoch-stamped route-serving format ftfabricd speaks next to its JSON
// API, on the same listener. Where GET /v1/route resolves one src→dst
// pair per HTTP round-trip, one RouteSetReq resolves an entire job's
// src→dst set in a single frame, with hops served straight out of the
// compiled arena as varint-packed path entries: pair by pair for an
// explicit batch (RouteSetResp), in the arena's own head ++ tail
// factoring for a placed job's whole set (RouteSetFactored).
//
// Framing (all integers little-endian, varints unsigned LEB128):
//
//	offset 0  magic   [2]byte  {0xFA, 0xB1} — never a valid HTTP method
//	offset 2  version uint8    (2)
//	offset 3  type    uint8    message type
//	offset 4  length  uint32   payload bytes (<= MaxPayload)
//	offset 8  payload
//
// The first magic byte is what lets one listener serve both protocols:
// no HTTP request line can begin with 0xFA, so a connection's first
// byte decides which handler owns it (see Split).
//
// Message payloads are pure varint/byte sequences — no reflection, no
// field tags — and every decoder is strictly bounds-checked: a count
// can never exceed the bytes that remain, so malformed or truncated
// frames fail fast without large allocations. FuzzWireDecode and the
// byte-exact fixtures under testdata/ pin both properties; protocol
// drift is a test failure, not a silent incompatibility.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	// Magic0 and Magic1 open every frame. Magic0 doubles as the
	// protocol-sniffing byte in Split.
	Magic0 = 0xFA
	Magic1 = 0xB1
	// Version is the only wire version this package speaks; there is no
	// negotiation. 2 = a job-mode RouteSetReq is answered factored.
	Version = 2
	// HeaderSize is the fixed frame header length.
	HeaderSize = 8
	// MaxPayload bounds a frame's payload: large enough for a full
	// 100k-endpoint order table or a whole-job route set, small enough
	// that a hostile length field cannot balloon memory.
	MaxPayload = 1 << 26 // 64 MiB
	// MaxStride bounds a factored route set's tail length: an up*/down*
	// path climbs and descends at most h levels, and a tree whose hosts
	// fit the wire's uint32 ids has h <= 32.
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

// Error codes carried by TError.
const (
	CodeBadRequest  = 1 // malformed or out-of-range request
	CodeNotFound    = 2 // unknown engine or job
	CodeUnavailable = 3 // pair unroutable under the serving epoch
	CodeInternal    = 4 // server-side failure
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
	// Pairs is the explicit batch, pairs-mode only.
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
	for _, p := range m.Pairs {
		dst = binary.AppendUvarint(dst, uint64(p[0]))
		dst = binary.AppendUvarint(dst, uint64(p[1]))
	}
	return dst
}

// PairRoute is one resolved pair of a RouteSetResp. Hops are the packed
// path entries of the compiled arena (link id shifted left once, bit 0
// = up), varint-encoded on the wire; OK=false marks a pair the serving
// epoch cannot route (broken by faults or an unroutable host) — the
// binary twin of the JSON 503.
type PairRoute struct {
	Src, Dst uint32
	OK       bool
	Hops     []uint32
}

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
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = appendString(dst, m.Engine)
	dst = appendString(dst, m.Routing)
	dst = binary.AppendUvarint(dst, uint64(len(m.Pairs)))
	for i := range m.Pairs {
		p := &m.Pairs[i]
		dst = binary.AppendUvarint(dst, uint64(p.Src))
		dst = binary.AppendUvarint(dst, uint64(p.Dst))
		if !p.OK {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(p.Hops)))
		for _, h := range p.Hops {
			dst = binary.AppendUvarint(dst, uint64(h))
		}
	}
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
// it into the pair list once; it is not meant to be read in place.
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

// Expand materializes the pair list the message stands for — every
// ordered src != dst pair of Hosts, source-major in Hosts order — into
// two slabs, one of pairs and one of hops. The client does this once
// per fetched epoch. m must be consistent, as every decoded message is.
func (m *RouteSetFactored) Expand() *RouteSetResp {
	n := len(m.Hosts)
	resp := &RouteSetResp{Epoch: m.Epoch, Engine: m.Engine, Routing: m.Routing}
	total := 0 // every pair's hops, plus the few of the unread diagonal and the broken pairs
	for _, h := range m.Hosts {
		total += int(m.TailOff[int(h.Row)*n+n] - m.TailOff[int(h.Row)*n])
		if h.Head != NoHead {
			total += n - 1
		}
	}
	resp.Pairs = make([]PairRoute, n*(n-1))
	hops := make([]uint32, total)
	broken, k, at := m.Broken, 0, 0
	for i, h := range m.Hosts {
		off := m.TailOff[int(h.Row)*n : int(h.Row)*n+n+1]
		for j, to := range m.Hosts {
			if i == j {
				continue
			}
			p := &resp.Pairs[k]
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
			at += copy(hops[at:], m.Tails[off[j]:off[j+1]])
			p.OK, p.Hops = true, hops[start:at:at]
		}
	}
	return resp
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
			n := d.count(2) // a pair is at least two varint bytes
			if d.err == nil {
				r.Pairs = make([][2]uint32, n)
				for i := range r.Pairs {
					r.Pairs[i][0] = d.u32()
					r.Pairs[i][1] = d.u32()
				}
			}
		default:
			return nil, fmt.Errorf("%w: route-set mode %d", ErrTruncated, mode)
		}
		m = r
	case TRouteSetResp:
		r := &RouteSetResp{}
		r.Epoch = d.uvarint()
		r.Engine = d.str()
		r.Routing = d.str()
		n := d.count(3) // src, dst, status
		if d.err == nil {
			r.Pairs = make([]PairRoute, n)
			// Every pair's hops are windows of one slab. A hop is at
			// least one byte and a pair three more, so the bytes still
			// unread bound the slab before any hop is decoded.
			hops := make([]uint32, 0, len(d.b)-3*n)
			for i := range r.Pairs {
				p := &r.Pairs[i]
				p.Src = d.u32()
				p.Dst = d.u32()
				switch d.byte() {
				case 1:
					p.OK = true
					start := len(hops)
					for nh := d.count(1); nh > 0 && d.err == nil; nh-- {
						hops = append(hops, d.u32())
					}
					p.Hops = hops[start:len(hops):len(hops)]
				case 0:
				default:
					d.must(false, "pair status byte")
				}
				if d.err != nil {
					break
				}
			}
		}
		m = r
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

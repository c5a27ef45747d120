package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// AppendFrame appends a complete frame — header plus encoded payload —
// for m to dst and returns the extended slice. This is the zero-copy
// building block: the daemon pre-encodes whole job route sets with it
// at placement time and serves the bytes verbatim.
func AppendFrame(dst []byte, m Message) []byte {
	head := len(dst)
	return closeFrame(m.appendPayload(appendHeader(dst, m.Type())), head)
}

// AppendRouteSetReq is AppendFrame(dst, m) with the concrete type in the
// signature: the compiler can see that m is only read, so a request
// built on the caller's stack stays there.
func AppendRouteSetReq(dst []byte, m *RouteSetReq) []byte {
	head := len(dst)
	return closeFrame(m.appendPayload(appendHeader(dst, TRouteSetReq)), head)
}

// appendHeader opens a frame: the header with a zero length field.
func appendHeader(dst []byte, t MsgType) []byte {
	return append(dst, Magic0, Magic1, Version, byte(t), 0, 0, 0, 0)
}

// closeFrame fills in the length field of the frame opened at dst[head:].
func closeFrame(dst []byte, head int) []byte {
	binary.LittleEndian.PutUint32(dst[head+4:head+8], uint32(len(dst)-head-HeaderSize))
	return dst
}

// EndFrame closes the frame opened at dst[head:] (see BeginRouteSet) by
// filling in its length field. A payload past MaxPayload is refused as
// by AppendFrameChecked: dst[:head] and ErrTooLarge.
func EndFrame(dst []byte, head int) ([]byte, error) {
	if n := len(dst) - head - HeaderSize; n > MaxPayload {
		return dst[:head], fmt.Errorf("%w: %d-byte payload", ErrTooLarge, n)
	}
	return closeFrame(dst, head), nil
}

// EncodeFrame is AppendFrame into a fresh slice.
func EncodeFrame(m Message) []byte { return AppendFrame(nil, m) }

// AppendFrameChecked is AppendFrame for producers whose payload size
// is data-dependent (whole-job route sets): it refuses to emit a frame
// every peer would reject — a payload past MaxPayload, a factored set
// past MaxJobHosts or MaxStride, a pair with more hops than its count
// byte can say — returning dst unextended and ErrTooLarge instead.
func AppendFrameChecked(dst []byte, m Message) ([]byte, error) {
	switch f := m.(type) {
	case *RouteSetFactored:
		if len(f.Hosts) > MaxJobHosts || f.Stride > MaxStride {
			return dst, fmt.Errorf("%w: %d hosts, stride %d", ErrTooLarge, len(f.Hosts), f.Stride)
		}
	case *RouteSetResp:
		// The pass that bounds every hop list also sizes the records, so
		// an oversized list is refused before a byte of it is written and
		// an accepted one is encoded into a buffer grown once.
		size := pairRecord * len(f.Pairs)
		for i := range f.Pairs {
			if p := &f.Pairs[i]; p.OK {
				if len(p.Hops) > maxHops {
					return dst, fmt.Errorf("%w: pair %d->%d has %d hops, a record carries at most %d", ErrTooLarge, p.Src, p.Dst, len(p.Hops), maxHops)
				}
				size += 4 * len(p.Hops)
			}
		}
		if size > MaxPayload {
			return dst, fmt.Errorf("%w: %d bytes of pair records", ErrTooLarge, size)
		}
		dst = slices.Grow(dst, HeaderSize+size)
	}
	head := len(dst)
	return EndFrame(m.appendPayload(appendHeader(dst, m.Type())), head)
}

// WriteMessage frames and writes m in a single Write call.
func WriteMessage(w io.Writer, m Message) error {
	_, err := w.Write(EncodeFrame(m))
	return err
}

// ReadMessage reads one frame from r and decodes its payload. Frames
// larger than MaxPayload are rejected before any payload allocation.
// io.EOF is returned untouched at a clean frame boundary so connection
// loops can distinguish hangup from corruption.
func ReadMessage(r io.Reader) (Message, error) { return NewReader(r).ReadMessage() }

// ReadFrame reads and validates one frame header plus raw payload.
func ReadFrame(r io.Reader) (MsgType, []byte, error) { return NewReader(r).ReadFrame() }

// MaxScratch is the largest per-connection buffer kept between
// requests: room for a few hundred pairs' batch or answer, below a
// whole job's frame, so what a connection moved once is not what it
// pins for life.
const MaxScratch = 32 << 10

// Retain empties a connection's scratch buffer for its next use, or lets
// it go when it grew past MaxScratch.
func Retain(buf []byte) []byte {
	if cap(buf) > MaxScratch {
		return nil
	}
	return buf[:0]
}

// Reader reads the frames of one connection, reusing one payload buffer
// across them (see Retain). Messages it decodes never alias the buffer.
type Reader struct {
	r    io.Reader
	head [HeaderSize]byte
	buf  []byte
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage is ReadMessage on the reader's connection.
func (fr *Reader) ReadMessage() (Message, error) {
	t, payload, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return DecodePayload(t, payload)
}

// ReadFrame is ReadFrame on the reader's connection. The payload is the
// reader's own buffer: it is valid until the next call.
func (fr *Reader) ReadFrame() (MsgType, []byte, error) {
	head := fr.head[:]
	if _, err := io.ReadFull(fr.r, head); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: mid-header", ErrTruncated)
		}
		return 0, nil, err
	}
	if head[0] != Magic0 || head[1] != Magic1 {
		return 0, nil, fmt.Errorf("%w: 0x%02x 0x%02x", ErrBadMagic, head[0], head[1])
	}
	if head[2] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, head[2])
	}
	n := int(binary.LittleEndian.Uint32(head[4:8]))
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	// The length field is the peer's claim, not bytes received: reserve
	// 64 KiB at most up front and double only once that much has
	// arrived, so eight header bytes cannot pin MaxPayload per
	// connection. An in-memory reader that holds the whole payload
	// already gets its single allocation.
	size := min(n, 64<<10)
	if l, ok := fr.r.(interface{ Len() int }); ok && l.Len() >= n {
		size = n
	}
	payload := fr.buf
	if size <= cap(payload) {
		payload = payload[:size]
	} else {
		payload = make([]byte, size)
	}
	for got := 0; ; {
		if _, err := io.ReadFull(fr.r, payload[got:]); err != nil {
			return 0, nil, fmt.Errorf("%w: mid-payload: %v", ErrTruncated, err)
		}
		if got = len(payload); got == n {
			fr.buf = Retain(payload)
			return MsgType(head[3]), payload, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, payload)
		payload = grown
	}
}

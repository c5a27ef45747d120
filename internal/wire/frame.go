package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// AppendFrame appends a complete frame — header plus encoded payload —
// for m to dst and returns the extended slice. This is the zero-copy
// building block: the daemon pre-encodes whole job route sets with it
// at placement time and serves the bytes verbatim.
func AppendFrame(dst []byte, m Message) []byte {
	head := len(dst)
	dst = append(dst, Magic0, Magic1, Version, byte(m.Type()), 0, 0, 0, 0)
	dst = m.appendPayload(dst)
	binary.LittleEndian.PutUint32(dst[head+4:head+8], uint32(len(dst)-head-HeaderSize))
	return dst
}

// EncodeFrame is AppendFrame into a fresh slice.
func EncodeFrame(m Message) []byte { return AppendFrame(nil, m) }

// AppendFrameChecked is AppendFrame for producers whose payload size
// is data-dependent (whole-job route sets): it refuses to emit a frame
// every peer would reject — a payload past MaxPayload, a factored set
// past MaxJobHosts or MaxStride — returning dst unextended and
// ErrTooLarge instead.
func AppendFrameChecked(dst []byte, m Message) ([]byte, error) {
	if f, ok := m.(*RouteSetFactored); ok && (len(f.Hosts) > MaxJobHosts || f.Stride > MaxStride) {
		return dst, fmt.Errorf("%w: %d hosts, stride %d", ErrTooLarge, len(f.Hosts), f.Stride)
	}
	out := AppendFrame(dst, m)
	if n := len(out) - len(dst) - HeaderSize; n > MaxPayload {
		return dst, fmt.Errorf("%w: %d-byte payload", ErrTooLarge, n)
	}
	return out, nil
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
func ReadMessage(r io.Reader) (Message, error) {
	t, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodePayload(t, payload)
}

// ReadFrame reads and validates one frame header plus raw payload.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var head [HeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
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
	n := binary.LittleEndian.Uint32(head[4:8])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	// The length field is the peer's claim, not bytes received: reserve
	// 64 KiB at most up front and double only once that much has
	// arrived, so eight header bytes cannot pin MaxPayload per
	// connection. An in-memory reader that holds the whole payload
	// already gets its single allocation.
	size := min(int(n), 64<<10)
	if l, ok := r.(interface{ Len() int }); ok && l.Len() >= int(n) {
		size = int(n)
	}
	payload := make([]byte, size)
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return 0, nil, fmt.Errorf("%w: mid-payload: %v", ErrTruncated, err)
		}
		if got = len(payload); got == int(n) {
			return MsgType(head[3]), payload, nil
		}
		grown := make([]byte, min(int(n), 2*got))
		copy(grown, payload)
		payload = grown
	}
}

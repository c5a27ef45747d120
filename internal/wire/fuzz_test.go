package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame reader and every
// payload decoder: malformed lengths, truncated frames, hostile counts,
// epoch overflows. The decoder must never panic, never allocate past
// the payload it was handed, and anything it accepts must re-encode to
// a frame that decodes to the same bytes again (canonical round-trip).
// Wired into the CI fuzz-smoke job next to FuzzDoc.
func FuzzWireDecode(f *testing.F) {
	for _, m := range exampleMessages() {
		f.Add(EncodeFrame(m))
	}
	// Hand-built hostile seeds: truncated header, giant declared
	// length, count overflow, epoch at the uint64 edge.
	f.Add([]byte{Magic0, Magic1, Version, byte(TEpochReq)})
	f.Add([]byte{Magic0, Magic1, Version, byte(TRouteSetResp), 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(EncodeFrame(&NotModified{Epoch: ^uint64(0)}))
	f.Add(EncodeFrame(&EpochResp{Epoch: ^uint64(0), Engine: "e"}))
	huge := binary.AppendUvarint(nil, 1)
	huge = appendString(huge, "x")
	huge = appendString(huge, "y")
	huge = binary.AppendUvarint(huge, 1<<40) // absurd pair count
	f.Add(append([]byte{Magic0, Magic1, Version, byte(TRouteSetResp),
		byte(len(huge)), 0, 0, 0}, huge...))

	// Fixed-width pair records: an unserved pair, a zero-hop pair and a
	// two-hop pair whose second hop is cut off; a hop count in the
	// reserved range; a request batch one byte short of its last record.
	for _, seed := range []struct {
		typ     MsgType
		count   byte
		records []byte
	}{
		{TRouteSetResp, 3, []byte{3, 0, 0, 0, 9, 0, 0, 0, unserved, 7, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 5, 0, 0, 0, 6, 0}},
		{TRouteSetResp, 1, []byte{1, 0, 0, 0, 2, 0, 0, 0, maxHops + 1}},
		{TRouteSetReq, 2, []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0}},
	} {
		payload := appendString(appendString(binary.AppendUvarint(nil, 1), "x"), "y") // epoch, engine, routing
		if seed.typ == TRouteSetReq {
			payload = appendString([]byte{0, 0}, "x") // no hint, pairs mode, engine
		}
		payload = append(append(payload, seed.count), seed.records...)
		f.Add(append([]byte{Magic0, Magic1, Version, byte(seed.typ), byte(len(payload)), 0, 0, 0}, payload...))
	}

	// Factored route sets: a host count, a tail grid and a broken list
	// that outrun the payload, and a stride past the bound.
	for _, tail := range [][]byte{
		binary.AppendUvarint(nil, 1<<40),        // hosts
		{2, 2, 3, 0, 0, 0, 1, 1, 0, 3},          // 2x2 tails announced, one cut short
		{2, 1, 0xFF, 0x01, 0, 0, 0, 1, 0, 0},    // stride 255
		{2, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0x7F}, // 127 broken pairs in no bytes
	} {
		payload := append(appendString(appendString(binary.AppendUvarint(nil, 1), "x"), "y"), tail...)
		f.Add(append([]byte{Magic0, Magic1, Version, byte(TRouteSetFactored), byte(len(payload)), 0, 0, 0}, payload...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			m, err := ReadMessage(r)
			if err != nil {
				// Any error is fine — io.EOF, truncation, bad magic —
				// as long as it is an error, not a panic.
				if err == io.EOF {
					return
				}
				return
			}
			// An accepted factored set must expand without a look at
			// its indices (small ones only: the pair list is quadratic).
			if fm, ok := m.(*RouteSetFactored); ok && len(fm.Hosts) <= 64 {
				if n := len(fm.Hosts); len(fm.Expand().Pairs) != n*max(n-1, 0) {
					t.Fatalf("%d hosts expanded to %d pairs", n, len(fm.Expand().Pairs))
				}
			}
			// Accepted messages must round-trip canonically.
			frame := EncodeFrame(m)
			m2, err := ReadMessage(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("re-decode of accepted message failed: %v (frame %x)", err, frame)
			}
			if re := EncodeFrame(m2); !bytes.Equal(re, frame) {
				t.Fatalf("non-canonical round-trip:\n got %x\nwant %x", re, frame)
			}
		}
	})
}

// FuzzExpandFrom decodes two payloads as factored route sets, however
// unrelated, and patches the second onto the expansion of the first:
// whatever two valid messages a replica may answer in a row, the
// patched expansion must not panic, must equal Expand entry for entry
// and must leave the earlier set as it was. Wired into fuzz-smoke next
// to FuzzWireDecode.
func FuzzExpandFrom(f *testing.F) {
	payload := func(m *RouteSetFactored) []byte { return m.appendPayload(nil) }
	moved := exampleFactored()
	moved.Epoch, moved.Tails[3], moved.Broken = 43, 262, []uint64{1}
	f.Add(payload(exampleFactored()), payload(moved))
	f.Add(payload(moved), payload(exampleFactored()))
	f.Add(payload(job24(1)), payload(job24(2)))
	f.Add(payload(job24(2)), payload(job24(3)))   // a host goes down
	f.Add(payload(job24(19)), payload(job24(20))) // a host is swapped out
	f.Add(payload(exampleFactored()), payload(job24(1)))
	f.Add(payload(&RouteSetFactored{Epoch: 1}), payload(exampleFactored()))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ma, err := DecodePayload(TRouteSetFactored, a)
		if err != nil {
			return
		}
		mb, err := DecodePayload(TRouteSetFactored, b)
		if err != nil {
			return
		}
		prev, next := ma.(*RouteSetFactored), mb.(*RouteSetFactored)
		if len(prev.Hosts) > 64 || len(next.Hosts) > 64 { // the pair list is quadratic
			return
		}
		checkExpandFrom(t, "fuzzed pair", next, prev, prev.Expand())
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// exampleMessages returns one representative value per message type —
// the same set the golden fixtures pin. Kept in one place so a new
// message type added without a fixture fails TestGoldenCoverage.
func exampleMessages() map[string]Message {
	return map[string]Message{
		"epoch_req":  EpochReq{},
		"epoch_resp": &EpochResp{Epoch: 42, Engine: "dmodk"},
		"routeset_req_pairs": &RouteSetReq{
			EpochHint: 7,
			Engine:    "fault-resilient",
			Pairs:     [][2]uint32{{0, 17}, {17, 0}, {300, 23}},
		},
		"routeset_req_job": &RouteSetReq{ByJob: true, Job: 3, Engine: ""},
		"routeset_resp": &RouteSetResp{
			Epoch:   42,
			Engine:  "dmodk",
			Routing: "d-mod-k",
			Pairs: []PairRoute{
				{Src: 0, Dst: 17, OK: true, Hops: []uint32{5, 12, 130, 261}},
				{Src: 17, Dst: 17, OK: true, Hops: []uint32{}},
				{Src: 3, Dst: 9, OK: false},
			},
		},
		"routeset_factored": exampleFactored(),
		"not_modified":      &NotModified{Epoch: 42},
		"order_req":         OrderReq{},
		"order_resp": &OrderResp{
			Epoch:  9,
			Label:  "topology",
			HostOf: []uint32{0, 1, 2, 3, 7, 6, 5, 4},
		},
		"error": &ErrorResp{Code: CodeNotFound, Msg: "job 99 not placed"},
	}
}

// exampleFactored is a three-host job on two rows: hosts 4 and 5 share
// row 0 behind their own uplinks, host 9 owns row 1 and has no head;
// pair 5->9 is broken, the slot of 9's own row towards itself is empty.
func exampleFactored() *RouteSetFactored {
	return &RouteSetFactored{
		Epoch: 42, Engine: "dmodk", Routing: "d-mod-k", Stride: 3, Rows: 2,
		Hosts: []FactoredHost{{Host: 4, Row: 0, Head: 9}, {Host: 5, Row: 0, Head: 11}, {Host: 9, Row: 1, Head: NoHead}},
		// row 0 towards 4, 5, 9; row 1 towards 4, 5, 9
		TailOff: []uint32{0, 1, 2, 5, 8, 11, 11},
		Tails:   []uint32{8, 10, 131, 260, 18, 19, 261, 8, 19, 261, 10},
		Broken:  []uint64{1*3 + 2},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for name, m := range exampleMessages() {
		t.Run(name, func(t *testing.T) {
			frame := EncodeFrame(m)
			got, err := ReadMessage(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Type() != m.Type() {
				t.Fatalf("type %d, want %d", got.Type(), m.Type())
			}
			// Re-encoding the decoded message must be byte-identical:
			// the canonical-encoding property the conformance fixtures
			// rely on.
			if re := EncodeFrame(got); !bytes.Equal(re, frame) {
				t.Fatalf("re-encode differs:\n got %x\nwant %x", re, frame)
			}
			// Hops/empty-slice normalization aside, the decoded value
			// must match semantically.
			if !equalMessages(m, got) {
				t.Fatalf("decoded %#v, want %#v", got, m)
			}
		})
	}
}

// equalMessages compares messages, treating nil and empty slices as
// equal (decode materializes empty slices).
func equalMessages(a, b Message) bool {
	return bytes.Equal(EncodeFrame(a), EncodeFrame(b)) &&
		reflect.TypeOf(a) == reflect.TypeOf(b)
}

func TestStreamedFrames(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&RouteSetReq{Pairs: [][2]uint32{{1, 2}}},
		EpochReq{},
		&EpochResp{Epoch: 1, Engine: "dmodk"},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !equalMessages(want, got) {
			t.Fatalf("frame %d: %#v != %#v", i, got, want)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	okFrame := EncodeFrame(&EpochResp{Epoch: 3, Engine: "dmodk"})
	cases := map[string]struct {
		frame []byte
		want  error
	}{
		"bad magic":     {append([]byte{'G', 'E'}, okFrame[2:]...), ErrBadMagic},
		"bad version":   {mutate(okFrame, 2, 9), ErrBadVersion},
		"unknown type":  {mutate(okFrame, 3, 0x7F), ErrUnknownType},
		"mid header":    {okFrame[:4], ErrTruncated},
		"mid payload":   {okFrame[:len(okFrame)-2], ErrTruncated},
		"trailing junk": {lengthened(okFrame, 2), ErrTrailing},
		"huge length":   {hugeLength(okFrame), ErrTooLarge},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadMessage(bytes.NewReader(tc.frame))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCountGuard proves a hostile element count cannot force a large
// allocation: a route-set response claiming 2^30 pairs in a tiny
// payload must fail as truncated, not OOM.
func TestCountGuard(t *testing.T) {
	payload := binary.AppendUvarint(nil, 1) // epoch
	payload = appendString(payload, "e")
	payload = appendString(payload, "r")
	payload = binary.AppendUvarint(payload, 1<<30) // pairs "count"
	if _, err := DecodePayload(TRouteSetResp, payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Same for a string length overrunning the payload.
	payload = binary.AppendUvarint(nil, 1)
	payload = binary.AppendUvarint(payload, 1<<20)
	if _, err := DecodePayload(TEpochResp, payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("string overrun: err = %v, want ErrTruncated", err)
	}
}

func mutate(frame []byte, i int, b byte) []byte {
	out := append([]byte(nil), frame...)
	out[i] = b
	return out
}

// lengthened declares n extra payload bytes and appends them, producing
// a frame whose payload decodes clean but leaves trailing bytes.
func lengthened(frame []byte, n int) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(frame)-HeaderSize+n))
	for i := 0; i < n; i++ {
		out = append(out, 0xEE)
	}
	return out
}

func hugeLength(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[4:8], MaxPayload+1)
	return out
}

// TestAppendFrameCheckedBudget: a message whose payload encodes past
// MaxPayload is refused with ErrTooLarge and dst comes back
// unextended, so a producer can substitute an application-level error
// frame instead of emitting bytes every peer rejects unread.
func TestAppendFrameCheckedBudget(t *testing.T) {
	dst := []byte("prefix")
	out, err := AppendFrameChecked(dst, &EpochResp{Epoch: 1, Engine: "dmodk"})
	if err != nil {
		t.Fatalf("in-budget frame refused: %v", err)
	}
	if !bytes.Equal(out, AppendFrame([]byte("prefix"), &EpochResp{Epoch: 1, Engine: "dmodk"})) {
		t.Fatal("checked append differs from AppendFrame")
	}

	// Overflow by pair count: full-length pairs sharing one hop list, one
	// more of them than MaxPayload holds.
	hops := make([]uint32, maxHops)
	pairs := make([]PairRoute, MaxPayload/(pairRecord+4*maxHops)+1)
	for i := range pairs {
		pairs[i] = PairRoute{Src: uint32(i), Dst: 1, OK: true, Hops: hops}
	}
	out, err = AppendFrameChecked(dst, &RouteSetResp{Pairs: pairs})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrTooLarge", err)
	}
	if len(out) != len(dst) {
		t.Fatalf("refused append still extended dst to %d bytes", len(out))
	}
	if out, err = AppendFrameChecked(dst, &RouteSetResp{Pairs: pairs[:len(pairs)-1]}); err != nil || len(out)-len(dst)-HeaderSize > MaxPayload {
		t.Fatalf("one pair fewer is inside the budget: err = %v, %d bytes", err, len(out)-len(dst))
	}

	// A factored set past the bounds every decoder enforces is refused
	// the same way, whatever its byte size.
	for name, f := range map[string]*RouteSetFactored{
		"hosts":  {Hosts: make([]FactoredHost, MaxJobHosts+1)},
		"stride": {Stride: MaxStride + 1},
	} {
		if out, err := AppendFrameChecked(dst, f); !errors.Is(err, ErrTooLarge) || len(out) != len(dst) {
			t.Fatalf("factored set past the %s bound: err = %v, %d bytes appended", name, err, len(out)-len(dst))
		}
	}
}

// TestHopCountByte pins the one field of a pair record that cannot say
// everything a []uint32 can: a hop list past MaxStride+1 is refused by
// the checked encoder (dst unextended), never truncated by the unchecked
// one, and a count byte in the reserved range (MaxStride+1, 0xFF) is
// malformed to the decoder.
func TestHopCountByte(t *testing.T) {
	long := &RouteSetResp{Pairs: []PairRoute{{Src: 1, Dst: 2, OK: true, Hops: make([]uint32, maxHops+1)}}}
	dst := []byte("prefix")
	if out, err := AppendFrameChecked(dst, long); !errors.Is(err, ErrTooLarge) || len(out) != len(dst) {
		t.Fatalf("%d-hop pair: err = %v, %d bytes appended", maxHops+1, err, len(out)-len(dst))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AppendFrame encoded a %d-hop pair; its count byte cannot say that", maxHops+1)
			}
		}()
		AppendFrame(nil, long)
	}()

	long.Pairs[0].Hops = long.Pairs[0].Hops[:maxHops]
	frame, err := AppendFrameChecked(nil, long)
	if err != nil {
		t.Fatalf("%d-hop pair refused: %v", maxHops, err)
	}
	if m, err := ReadMessage(bytes.NewReader(frame)); err != nil || len(m.(*RouteSetResp).Pairs[0].Hops) != maxHops {
		t.Fatalf("%d-hop pair does not round-trip: %v", maxHops, err)
	}
	at := len(frame) - 4*maxHops - 1 // the count byte
	for _, b := range []byte{maxHops + 1, 0x80, unserved - 1} {
		if _, err := ReadMessage(bytes.NewReader(mutate(frame, at, b))); !errors.Is(err, ErrMalformed) {
			t.Errorf("hop count byte 0x%02x: err = %v, want ErrMalformed", b, err)
		}
	}
	// 0xFF with hops behind it is an unserved pair followed by junk.
	if _, err := ReadMessage(bytes.NewReader(mutate(frame, at, unserved))); !errors.Is(err, ErrTrailing) {
		t.Errorf("unserved pair with hops behind it: err = %v, want ErrTrailing", err)
	}
}

// TestRouteSetRoundTripProperty: decode(encode(x)) == x over seeded
// random answers — served pairs of every length up to the bound,
// zero-hop pairs, unserved pairs, empty batches — and every cut of the
// encoding short of its end is refused, never misread.
func TestRouteSetRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		want := &RouteSetResp{Epoch: rng.Uint64(), Engine: "dmodk", Routing: "d-mod-k", Pairs: []PairRoute{}}
		for n := rng.Intn(40); n > 0; n-- {
			p := PairRoute{Src: rng.Uint32(), Dst: rng.Uint32()}
			if rng.Intn(4) > 0 {
				p.OK, p.Hops = true, make([]uint32, rng.Intn(maxHops+1))
				for k := range p.Hops {
					p.Hops[k] = rng.Uint32()
				}
			}
			want.Pairs = append(want.Pairs, p)
		}
		payload := want.appendPayload(nil)
		got, err := DecodePayload(TRouteSetResp, payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: decoded\n %+v\nwant\n %+v", round, got, want)
		}
		req := &RouteSetReq{Engine: "e", Pairs: make([][2]uint32, len(want.Pairs))}
		for i, p := range want.Pairs {
			req.Pairs[i] = [2]uint32{p.Src, p.Dst}
		}
		if got, err := DecodePayload(TRouteSetReq, req.appendPayload(nil)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("round %d: request decoded to %+v (err %v), want %+v", round, got, err, req)
		}
		cut := rng.Intn(len(payload))
		if _, err := DecodePayload(TRouteSetResp, payload[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("round %d: payload cut at %d of %d: err = %v, want ErrTruncated", round, cut, len(payload), err)
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite wire golden fixtures")

// TestGoldenFrames pins the exact on-the-wire bytes of every message
// type against checked-in fixtures. Any encoding change — field order,
// varint widths, header layout — fails here first, so protocol drift is
// a reviewed diff in testdata/, never a silent incompatibility between
// a new client and an old daemon. Regenerate deliberately with
// `go test ./internal/wire -run Golden -update`.
func TestGoldenFrames(t *testing.T) {
	for name, m := range exampleMessages() {
		t.Run(name, func(t *testing.T) {
			frame := EncodeFrame(m)
			path := filepath.Join("testdata", name+".bin")
			if *update {
				if err := os.WriteFile(path, frame, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("encoding drifted from %s:\n got %x\nwant %x\n(run with -update only for a deliberate protocol change)",
					path, frame, want)
			}
			// The fixture must decode back to a message that re-encodes
			// identically: decoder and fixture agree, not just encoder.
			got, err := ReadMessage(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if re := EncodeFrame(got); !bytes.Equal(re, want) {
				t.Fatalf("fixture re-encode differs:\n got %x\nwant %x", re, want)
			}
		})
	}
}

// TestGoldenCoverage fails when a message type exists without a golden
// fixture, so new protocol messages cannot dodge conformance pinning.
func TestGoldenCoverage(t *testing.T) {
	covered := map[MsgType]bool{}
	for _, m := range exampleMessages() {
		covered[m.Type()] = true
	}
	// Ask the decoder itself which type bytes exist, so a type added
	// anywhere in the numbering is held to the requirement.
	for ty := 0; ty <= 0xFF; ty++ {
		if _, err := DecodePayload(MsgType(ty), nil); !errors.Is(err, ErrUnknownType) && !covered[MsgType(ty)] {
			t.Errorf("message type 0x%02x has no example/golden fixture", ty)
		}
	}
	// And every fixture on disk must belong to a known example, so
	// stale fixtures do not linger unverified.
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	names := exampleMessages()
	var stray []string
	for _, e := range ents {
		if e.IsDir() { // fuzz corpus lives under testdata/fuzz/
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".bin")
		if _, ok := names[base]; !ok {
			stray = append(stray, e.Name())
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Errorf("stray fixtures with no example message: %v", stray)
	}
}

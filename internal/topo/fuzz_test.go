package topo

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"324", "1944", "pgft:2;18,18;1,9;1,2", "rlft2:18,18", "rlft3:18,6",
		"max:3,18", "kary:4,3", "pgft:1;8;1;1", "", "pgft:", "bogus:1,2",
		"pgft:2;4,4;1,2", "pgft:99;1;1;1",
		// Counts past int64, which overflowed: end-ports to 0 and below,
		// a host's up ports to 0; and heights whose checks took minutes
		// or whose vectors did not fit in memory.
		"max:21,8", "max:10,100", "pgft:1;2;4;4611686018427387904",
		"max:888881,1", "max:8888888830,2", "kary:2,8888888830",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseSpec(s)
		if err != nil {
			return
		}
		// Any accepted spec must validate and produce sane counts.
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted spec %q fails validation: %v", s, err)
		}
		if g.NumHosts() < 1 {
			t.Fatalf("accepted spec %q has %d hosts", s, g.NumHosts())
		}
		// Keep the builder off absurdly large accepted specs.
		if g.NumHosts() > 5000 || g.TotalSwitches() > 5000 {
			return
		}
		tp, err := Build(g)
		if err != nil {
			t.Fatalf("accepted spec %q does not build: %v", s, err)
		}
		for i := range tp.Ports {
			if tp.Ports[i].Link == None {
				t.Fatalf("spec %q built with unconnected port", s)
			}
		}
	})
}

func FuzzParseTopologyFile(f *testing.F) {
	// Seed with a real round-trip and a few corruptions.
	tp := MustBuild(MustPGFT(2, []int{2, 2}, []int{1, 2}, []int{1, 1}))
	var buf bytes.Buffer
	if _, err := tp.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("pgft h=1 m=4 w=1 p=1\n")
	f.Add("pgft h=1 m=4 w=1 p=1\nlink L0:0/u0 L1:0/d0\n")
	f.Add("# comment only\n")
	f.Add("pgft h=2 m=4,4 w=1,2 p=1,2\nlink L9:9/u9 L9:9/d9\n")
	f.Fuzz(func(t *testing.T, s string) {
		// Must never panic; on success the topology must be coherent.
		got, err := Parse(strings.NewReader(s))
		if err != nil {
			return
		}
		if got.NumHosts() < 1 {
			t.Fatalf("parsed topology with %d hosts", got.NumHosts())
		}
		if len(got.Links) == 0 && got.Spec.H > 0 && got.NumHosts() > 0 {
			t.Fatalf("parsed topology with no links")
		}
	})
}

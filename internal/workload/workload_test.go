package workload

import (
	"testing"

	"fattree/internal/netsim"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func TestGenerateShapes(t *testing.T) {
	c := Config{Hosts: 64, Bytes: 1024, Seed: 1}
	for _, p := range All() {
		msgs, err := Generate(p, c)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(msgs) == 0 {
			t.Fatalf("%s: empty", p)
		}
		for _, m := range msgs {
			if m.Src == m.Dst {
				t.Fatalf("%s: self message", p)
			}
			if m.Src < 0 || m.Src >= 64 || m.Dst < 0 || m.Dst >= 64 {
				t.Fatalf("%s: out of range %v", p, m)
			}
			if m.Bytes != 1024 {
				t.Fatalf("%s: wrong size %d", p, m.Bytes)
			}
		}
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	msgs, err := Generate(RandomPermutation, Config{Hosts: 100, Bytes: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dsts := make(map[int]bool)
	srcs := make(map[int]bool)
	for _, m := range msgs {
		if dsts[m.Dst] || srcs[m.Src] {
			t.Fatalf("duplicate endpoint in permutation")
		}
		dsts[m.Dst] = true
		srcs[m.Src] = true
	}
	// Fixed points are dropped, so <= 100 messages.
	if len(msgs) > 100 || len(msgs) < 90 {
		t.Errorf("permutation produced %d messages", len(msgs))
	}
}

func TestIncastTargetsZero(t *testing.T) {
	msgs, err := Generate(Incast, Config{Hosts: 16, Bytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 15 {
		t.Fatalf("incast messages = %d, want 15", len(msgs))
	}
	for _, m := range msgs {
		if m.Dst != 0 {
			t.Fatalf("incast message to %d", m.Dst)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Tornado, Config{Hosts: 1, Bytes: 64}); err == nil {
		t.Error("single host accepted")
	}
	if _, err := Generate(Tornado, Config{Hosts: 16, Bytes: 0}); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := Generate("bogus", Config{Hosts: 16, Bytes: 64}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, _ := Generate(UniformRandom, Config{Hosts: 32, Bytes: 64, Seed: 5})
	b, _ := Generate(UniformRandom, Config{Hosts: 32, Bytes: 64, Seed: 5})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPatternsRunThroughSimulator(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	nw, err := netsim.New(lft, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range All() {
		msgs, err := Generate(p, Config{Hosts: 128, Bytes: 8192, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		st, err := nw.Run(msgs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var want int64
		for _, m := range msgs {
			want += m.Bytes
		}
		if st.BytesDelivered != want {
			t.Errorf("%s: delivered %d of %d bytes", p, st.BytesDelivered, want)
		}
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 8: 2, 9: 3, 323: 17, 324: 18, 1944: 44}
	for n, want := range cases {
		if got := isqrt(n); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

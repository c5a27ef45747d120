package workload_test

import (
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/netsim"
	"fattree/internal/workload"
)

func pairs(msgs []netsim.Message) [][2]int {
	out := make([][2]int, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, [2]int{m.Src, m.Dst})
	}
	return out
}

// TestPermutationPatterns: the patterns documented as permutations
// really generate at most one send and one receive per host each round,
// so a single round is admissible as one CPS stage.
func TestPermutationPatterns(t *testing.T) {
	const n = 24
	gen := func(p workload.Pattern, seed int64, hosts int) [][2]int {
		t.Helper()
		msgs, err := workload.Generate(p, workload.Config{Hosts: hosts, Bytes: 1, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return pairs(msgs)
	}
	for seed := int64(0); seed < 5; seed++ {
		if err := invariant.PermutationPairs(gen(workload.RandomPermutation, seed, n), n); err != nil {
			t.Errorf("random-permutation seed %d: %v", seed, err)
		}
	}
	if err := invariant.PermutationPairs(gen(workload.Tornado, 0, n), n); err != nil {
		t.Errorf("tornado: %v", err)
	}
	// i -> i*stride mod n is a bijection exactly when stride is coprime
	// to n; on 26 hosts the stride is isqrt(26) = 5.
	if err := invariant.PermutationPairs(gen(workload.Transpose, 0, 26), 26); err != nil {
		t.Errorf("transpose on 26 hosts: %v", err)
	}
}

// TestNonPermutationPatternsRejected: the checker distinguishes the
// patterns that genuinely concentrate traffic.
func TestNonPermutationPatternsRejected(t *testing.T) {
	const n = 64
	msgs, err := workload.Generate(workload.Incast, workload.Config{Hosts: n, Bytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.PermutationPairs(pairs(msgs), n); err == nil {
		t.Error("incast accepted as a permutation")
	}
	msgs, err = workload.Generate(workload.UniformRandom, workload.Config{Hosts: n, Bytes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.PermutationPairs(pairs(msgs), n); err == nil {
		t.Error("uniform-random draw with collisions accepted as a permutation")
	}
	// Non-coprime transpose (stride isqrt(64) = 8) folds several
	// sources onto one destination.
	msgs, err = workload.Generate(workload.Transpose, workload.Config{Hosts: n, Bytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.PermutationPairs(pairs(msgs), n); err == nil {
		t.Error("transpose stride 8 on 64 hosts accepted as a permutation")
	}
}

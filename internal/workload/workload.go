// Package workload generates synthetic traffic patterns for the packet
// simulator beyond the MPI collectives: the classic suite used to stress
// interconnects (random permutations, uniform random, transpose, tornado,
// incast). Section II's methodology — translate a pattern into per
// end-port destination sequences and let hosts progress asynchronously —
// applies to all of them.
package workload

import (
	"fmt"
	"math/rand"

	"fattree/internal/netsim"
)

// Pattern names a traffic generator.
type Pattern string

// The supported patterns.
const (
	// RandomPermutation draws one uniform permutation; every host sends
	// to its image.
	RandomPermutation Pattern = "random-permutation"
	// UniformRandom has every host send to an independent uniform
	// destination.
	UniformRandom Pattern = "uniform-random"
	// Transpose sends i -> (i*stride) mod N with stride = sqrt-ish of
	// N, the matrix-transpose pattern known to stress fat-tree up-links.
	Transpose Pattern = "transpose"
	// Tornado sends i -> (i + N/2 - 1) mod N, the worst case of ring
	// topologies, a mild case for fat-trees.
	Tornado Pattern = "tornado"
	// Incast makes every host send to destination 0 — pure endpoint
	// congestion no routing can fix.
	Incast Pattern = "incast"
	// NearestNeighbor pairs each even host with the next one, i -> i+1
	// for even i, without wrap.
	NearestNeighbor Pattern = "nearest-neighbor"
)

// Config parameterizes generation.
type Config struct {
	Hosts int
	Bytes int64
	Seed  int64 // RNG seed for randomized patterns
}

// Generate builds the message list for a pattern: one message per
// sending host.
func Generate(p Pattern, c Config) ([]netsim.Message, error) {
	if c.Hosts < 2 {
		return nil, fmt.Errorf("workload: need at least 2 hosts, got %d", c.Hosts)
	}
	if c.Bytes < 1 {
		return nil, fmt.Errorf("workload: need positive message size, got %d", c.Bytes)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	n := c.Hosts
	var msgs []netsim.Message
	add := func(src, dst int) {
		if src != dst {
			msgs = append(msgs, netsim.Message{Src: src, Dst: dst, Bytes: c.Bytes})
		}
	}
	switch p {
	case RandomPermutation:
		for i, d := range rng.Perm(n) {
			add(i, d)
		}
	case UniformRandom:
		for i := 0; i < n; i++ {
			add(i, rng.Intn(n))
		}
	case Transpose:
		stride := isqrt(n)
		for i := 0; i < n; i++ {
			add(i, (i*stride)%n)
		}
	case Tornado:
		d := n/2 - 1
		if d < 1 {
			d = 1
		}
		for i := 0; i < n; i++ {
			add(i, (i+d)%n)
		}
	case Incast:
		for i := 1; i < n; i++ {
			add(i, 0)
		}
	case NearestNeighbor:
		for i := 0; i+1 < n; i += 2 {
			add(i, i+1)
		}
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q", p)
	}
	if len(msgs) == 0 {
		return nil, fmt.Errorf("workload: pattern %s generated no traffic for %d hosts", p, n)
	}
	return msgs, nil
}

// All lists the supported patterns.
func All() []Pattern {
	return []Pattern{RandomPermutation, UniformRandom, Transpose, Tornado, Incast, NearestNeighbor}
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

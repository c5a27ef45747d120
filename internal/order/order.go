// Package order implements MPI node orderings: the assignment of MPI
// ranks to cluster end-ports. The paper's central point is that this
// assignment must match the routing: with the topology-aware order
// (rank r on the r-th end-port in RLFT index order) D-Mod-K routes all
// collective permutation sequences without contention, while random
// orders lose up to 60% of the bandwidth and adversarial orders up to
// 92.9% (Section II).
package order

import (
	"fmt"
	"math/rand"
	"sort"

	"fattree/internal/topo"
)

// Ordering maps MPI ranks to end-port indices and back.
type Ordering struct {
	// Label describes how the ordering was generated.
	Label string
	// HostOf[rank] is the end-port index running that rank.
	HostOf []int
	// rankOf[host] is the rank on that end-port, or -1 when the host
	// is not part of the job.
	rankOf []int
}

// New builds an ordering from an explicit rank->host table. numHosts is
// the cluster size (end-port index space).
func New(label string, numHosts int, hostOf []int) (*Ordering, error) {
	o := &Ordering{Label: label, HostOf: append([]int(nil), hostOf...)}
	o.rankOf = make([]int, numHosts)
	for i := range o.rankOf {
		o.rankOf[i] = -1
	}
	for r, h := range o.HostOf {
		if h < 0 || h >= numHosts {
			return nil, fmt.Errorf("order: rank %d on host %d, out of range [0,%d)", r, h, numHosts)
		}
		if o.rankOf[h] != -1 {
			return nil, fmt.Errorf("order: host %d assigned to ranks %d and %d", h, o.rankOf[h], r)
		}
		o.rankOf[h] = r
	}
	return o, nil
}

// Size returns the job size (number of ranks).
func (o *Ordering) Size() int { return len(o.HostOf) }

// NumHosts returns the cluster size the ordering was built for.
func (o *Ordering) NumHosts() int { return len(o.rankOf) }

// RankOf returns the rank on host h, or -1 if h runs no rank.
func (o *Ordering) RankOf(h int) int { return o.rankOf[h] }

// Topology returns the paper's routing-aware order on the given active
// hosts: rank r runs on the r-th active end-port in ascending RLFT index
// order. With active == nil the whole cluster participates.
func Topology(numHosts int, active []int) *Ordering {
	hosts := activeOrAll(numHosts, active)
	sort.Ints(hosts)
	o, err := New("topology", numHosts, hosts)
	if err != nil {
		panic(err) // sorted unique input cannot fail
	}
	return o
}

// Random returns a uniformly random rank assignment over the active
// hosts, deterministic for a seed (the paper's 25-seed sweeps).
func Random(numHosts int, active []int, seed int64) *Ordering {
	hosts := activeOrAll(numHosts, active)
	sort.Ints(hosts)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	o, err := New(fmt.Sprintf("random(%d)", seed), numHosts, hosts)
	if err != nil {
		panic(err)
	}
	return o
}

func activeOrAll(numHosts int, active []int) []int {
	if active == nil {
		all := make([]int, numHosts)
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := make(map[int]bool, len(active))
	out := make([]int, 0, len(active))
	for _, h := range active {
		if h < 0 || h >= numHosts {
			panic(fmt.Sprintf("order: active host %d out of range [0,%d)", h, numHosts))
		}
		if seen[h] {
			panic(fmt.Sprintf("order: duplicate active host %d", h))
		}
		seen[h] = true
		out = append(out, h)
	}
	return out
}

// Adversarial builds the Section II worst case for the Ring permutation
// on a fully populated RLFT: every leaf's hosts all send to hosts of
// other leaves, picked so that under D-Mod-K all K flows leaving a leaf
// squeeze through a single up-going port (link oversubscription K, the
// measured 7.1% bandwidth case).
//
// The construction computes a destination permutation sigma with
// sigma(x) never in x's leaf and sigma(x) mod K fixed per leaf, then
// flattens sigma's cycles into a rank order so that the Ring stage
// reproduces sigma except at the few cycle-splice points. It requires a
// 2-or-more-level RLFT with K dividing the leaf count.
func Adversarial(t *topo.Topology) (*Ordering, error) {
	g := t.Spec
	k, ok := g.IsRLFT()
	if !ok {
		return nil, fmt.Errorf("order: adversarial order needs an RLFT, got %v", g)
	}
	if g.H < 2 {
		return nil, fmt.Errorf("order: adversarial order needs >= 2 levels")
	}
	n := g.NumHosts()
	leaves := n / k
	if leaves%k != 0 {
		return nil, fmt.Errorf("order: adversarial order needs K (%d) to divide the leaf count (%d)", k, leaves)
	}
	// sigma: the host in leaf l = c + K*t, slot x, sends to the slot-c
	// host of leaf (t*K + x + c + 1) mod L. Per fixed c the K-sized
	// blocks over t tile all leaves, so sigma is a bijection; the +c+1
	// offset keeps every destination outside the sender's leaf.
	sigma := make([]int, n)
	for l := 0; l < leaves; l++ {
		c := l % k
		tt := l / k
		for x := 0; x < k; x++ {
			dstLeaf := (tt*k + x + c + 1) % leaves
			sigma[l*k+x] = dstLeaf*k + c
		}
	}
	// Flatten cycles into a rank order: ranks follow sigma so that the
	// Ring flow rank r -> rank r+1 equals sigma on all but the splice
	// points between cycles.
	hostOf := make([]int, 0, n)
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		for x := start; !seen[x]; x = sigma[x] {
			seen[x] = true
			hostOf = append(hostOf, x)
		}
	}
	return New("adversarial", n, hostOf)
}

// Cyclic returns the round-robin placement batch schedulers call
// "cyclic" distribution: rank r runs on leaf (r mod L), slot (r div L).
// It spreads consecutive ranks across leaf switches — good for
// per-process memory bandwidth, catastrophic for fat-tree collectives,
// because consecutive destinations no longer map to consecutive leaf
// slots and the D-Mod-K spread breaks. The paper's "topology" order is
// the block distribution.
func Cyclic(t *topo.Topology) (*Ordering, error) {
	g := t.Spec
	if g.H < 1 {
		return nil, fmt.Errorf("order: cyclic order needs a tree")
	}
	hostsPerLeaf := g.Mi(1)
	n := g.NumHosts()
	leaves := n / hostsPerLeaf
	hostOf := make([]int, n)
	for r := 0; r < n; r++ {
		leaf := r % leaves
		slot := r / leaves
		hostOf[r] = leaf*hostsPerLeaf + slot
	}
	o, err := New("cyclic", n, hostOf)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// ByName resolves an ordering name — topology | random | adversarial |
// cyclic — on the active hosts of t (nil = the whole cluster). The seed
// drives random; adversarial and cyclic are constructions over the full
// population and refuse an active set.
func ByName(name string, t *topo.Topology, active []int, seed int64) (*Ordering, error) {
	n := t.NumHosts()
	switch name {
	case "topology":
		return Topology(n, active), nil
	case "random":
		return Random(n, active, seed), nil
	case "adversarial", "cyclic":
		if active != nil {
			return nil, fmt.Errorf("%s ordering supports full population only", name)
		}
		if name == "cyclic" {
			return Cyclic(t)
		}
		return Adversarial(t)
	}
	return nil, fmt.Errorf("unknown ordering %q", name)
}

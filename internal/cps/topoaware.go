package cps

import (
	"fmt"
	"sort"
)

// TopoAwareSeq is the Section VI congestion-free Recursive-Doubling
// sequence. Instead of XOR-ing the flat rank, communication follows the
// tree: one group of stages per tree level, each group exchanging between
// sibling sub-trees of that level only. Within a stage all traffic that
// climbs the tree shares a single hierarchical displacement, so Theorem 3
// applies and D-Mod-K routes it without contention.
//
// Ranks are assumed to be assigned in topology order (rank r on the r-th
// active end-port), which is exactly the node ordering the paper mandates.
type TopoAwareSeq struct {
	m      []int   // children per level, m[0] = hosts per leaf
	active []int   // sorted active host indices
	stages []Stage // materialized at construction
}

// taUnit is one occupied level-(l-1) sub-tree taking part in a level-l
// exchange group; for l == 1 a unit is a single host.
type taUnit struct {
	members []int // host indices, ascending
}

// taSubtree is one level-l sub-tree with its occupied child units in
// child-index order.
type taSubtree struct {
	units []taUnit
}

func (st *taSubtree) fullMask() uint64 {
	return (uint64(1) << len(st.units)) - 1
}

// TopoAwareRecursiveDoubling builds the sequence for a fully populated
// tree with the given per-level children counts (m[0] hosts per leaf,
// m[1] leaves per level-2 sub-tree, ...). The job size is prod(m). On a
// full tree the construction is exactly the paper's: per level,
// optionally a pre stage (equation-3 style proxy fold), floor(log2(m_l))
// XOR stages, and optionally a post stage; no fixups.
func TopoAwareRecursiveDoubling(m []int) (*TopoAwareSeq, error) {
	n := 1
	for _, mi := range m {
		if mi < 1 {
			return nil, fmt.Errorf("cps: topo-aware: non-positive children count %d", mi)
		}
		n *= mi
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	return TopoAwareRecursiveDoublingPartial(m, active)
}

// TopoAwareRecursiveDoublingPartial builds the sequence for a partially
// populated tree: active lists the populated end-port indices in the full
// tree's 0..prod(m)-1 index space. Rank r maps to the r-th active host in
// ascending index order.
//
// When sibling sub-trees hold unequal numbers of active hosts the
// member-wise pairing leaves some hosts without partners; correction
// ("fixup") stages — traffic purely inside the affected sub-tree —
// redistribute the merged data to them. On evenly populated trees
// (including whole-leaf removals) no fixup stages are generated.
func TopoAwareRecursiveDoublingPartial(m []int, active []int) (*TopoAwareSeq, error) {
	if len(m) == 0 {
		return nil, fmt.Errorf("cps: topo-aware: empty tree shape")
	}
	n := 1
	for _, mi := range m {
		if mi < 1 {
			return nil, fmt.Errorf("cps: topo-aware: non-positive children count %d", mi)
		}
		if mi > 64 {
			return nil, fmt.Errorf("cps: topo-aware: children count %d exceeds supported 64", mi)
		}
		n *= mi
	}
	act := append([]int(nil), active...)
	sort.Ints(act)
	for i, h := range act {
		if h < 0 || h >= n {
			return nil, fmt.Errorf("cps: topo-aware: active host %d out of range [0,%d)", h, n)
		}
		if i > 0 && act[i-1] == h {
			return nil, fmt.Errorf("cps: topo-aware: duplicate active host %d", h)
		}
	}
	if len(act) == 0 {
		return nil, fmt.Errorf("cps: topo-aware: no active hosts")
	}
	s := &TopoAwareSeq{m: append([]int(nil), m...), active: act}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements Sequence.
func (s *TopoAwareSeq) Name() string { return "topo-aware-recursive-doubling" }

// Size implements Sequence.
func (s *TopoAwareSeq) Size() int { return len(s.active) }

// NumStages implements Sequence.
func (s *TopoAwareSeq) NumStages() int { return len(s.stages) }

// Bidirectional implements Sequence.
func (s *TopoAwareSeq) Bidirectional() bool { return true }

// Stage implements Sequence.
func (s *TopoAwareSeq) Stage(st int) Stage {
	out := make(Stage, len(s.stages[st]))
	copy(out, s.stages[st])
	return out
}

// builder carries the per-level construction state.
type taBuilder struct {
	seq    *TopoAwareSeq
	rankOf map[int]int
	know   map[int]uint64 // host -> mask of own-subtree units known
	unitOf map[int]int    // host -> unit index within its subtree
	subs   []taSubtree
}

// build constructs the stage list level by level, simulating knowledge
// propagation to place fixup stages and to guarantee allreduce coverage.
func (s *TopoAwareSeq) build() error {
	b := &taBuilder{seq: s, rankOf: make(map[int]int, len(s.active))}
	for r, h := range s.active {
		b.rankOf[h] = r
	}
	h := len(s.m)
	mprod := make([]int, h+1)
	mprod[0] = 1
	for l := 1; l <= h; l++ {
		mprod[l] = mprod[l-1] * s.m[l-1]
	}
	for l := 1; l <= h; l++ {
		if err := b.buildLevel(l, mprod); err != nil {
			return err
		}
	}
	for i, st := range s.stages {
		if len(st) == 0 {
			return fmt.Errorf("cps: topo-aware: empty stage %d", i)
		}
	}
	return nil
}

func (b *taBuilder) buildLevel(l int, mprod []int) error {
	s := b.seq

	// Partition active hosts into level-l sub-trees and occupied
	// level-(l-1) units.
	subMap := make(map[int]map[int][]int)
	for _, host := range s.active {
		sid := host / mprod[l]
		uid := host / mprod[l-1]
		if subMap[sid] == nil {
			subMap[sid] = make(map[int][]int)
		}
		subMap[sid][uid] = append(subMap[sid][uid], host)
	}
	sids := make([]int, 0, len(subMap))
	for sid := range subMap {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	b.subs = b.subs[:0]
	for _, sid := range sids {
		uids := make([]int, 0, len(subMap[sid]))
		for uid := range subMap[sid] {
			uids = append(uids, uid)
		}
		sort.Ints(uids)
		var st taSubtree
		for _, uid := range uids {
			st.units = append(st.units, taUnit{members: subMap[sid][uid]})
		}
		b.subs = append(b.subs, st)
	}

	// Knowledge: every host starts the level knowing its own unit
	// (level l-1 completeness holds inductively).
	b.know = make(map[int]uint64, len(s.active))
	b.unitOf = make(map[int]int, len(s.active))
	for _, st := range b.subs {
		for u, un := range st.units {
			for _, host := range un.members {
				b.know[host] = 1 << u
				b.unitOf[host] = u
			}
		}
	}

	maxL := 0
	anyPre := false
	for _, st := range b.subs {
		lg := log2Floor(len(st.units))
		if lg > maxL {
			maxL = lg
		}
		if len(st.units) != 1<<lg {
			anyPre = true
		}
	}

	// Pre stage: remainder units fold onto proxies.
	if anyPre {
		var stage Stage
		for _, st := range b.subs {
			e := 1 << log2Floor(len(st.units))
			for u := e; u < len(st.units); u++ {
				b.addPairs(&stage, st.units[u], st.units[u-e])
			}
		}
		b.commit(stage)
	}
	// XOR stages over proxy units.
	for sx := 0; sx < maxL; sx++ {
		var stage Stage
		for _, st := range b.subs {
			e := 1 << log2Floor(len(st.units))
			if 1<<sx >= e {
				continue
			}
			for u := 0; u < e; u++ {
				if v := u ^ (1 << sx); v < e {
					b.addPairs(&stage, st.units[u], st.units[v])
				}
			}
		}
		b.commit(stage)
	}
	// Fixups pass 1: complete proxy-unit members before post unfolds.
	b.emitFixups(true)
	// Post stage: proxies unfold onto remainder units.
	if anyPre {
		var stage Stage
		for _, st := range b.subs {
			e := 1 << log2Floor(len(st.units))
			for u := e; u < len(st.units); u++ {
				b.addPairs(&stage, st.units[u-e], st.units[u])
			}
		}
		b.commit(stage)
	}
	// Fixups pass 2: stragglers in remainder units.
	b.emitFixups(false)

	// Assert level-l completeness for every active host.
	for _, st := range b.subs {
		full := st.fullMask()
		for _, un := range st.units {
			for _, host := range un.members {
				if b.know[host] != full {
					return fmt.Errorf("cps: topo-aware: host %d incomplete after level %d (%b of %b)",
						host, l, b.know[host], full)
				}
			}
		}
	}
	return nil
}

// addPairs emits directed member-wise pairs from unit `from` to unit `to`.
func (b *taBuilder) addPairs(stage *Stage, from, to taUnit) {
	k := len(from.members)
	if len(to.members) < k {
		k = len(to.members)
	}
	for i := 0; i < k; i++ {
		*stage = append(*stage, Pair{int32(b.rankOf[from.members[i]]), int32(b.rankOf[to.members[i]])})
	}
}

// commit applies the stage's knowledge transfer (simultaneous semantics)
// and appends it if non-empty. Reports whether the stage was kept.
func (b *taBuilder) commit(stage Stage) bool {
	if len(stage) == 0 {
		return false
	}
	gain := make(map[int32]uint64, len(stage))
	for _, p := range stage {
		gain[p.Dst] |= b.know[b.seq.active[p.Src]]
	}
	for dst, g := range gain {
		b.know[b.seq.active[dst]] |= g
	}
	b.seq.stages = append(b.seq.stages, stage)
	return true
}

// emitFixups appends correction stages until every reachable host is
// complete. With proxiesOnly, repair is restricted to hosts in units
// below the proxy threshold (pass 1, before the post stage); pass 2
// covers the remainder units. Donors from the needy host's own unit are
// preferred so fixup traffic stays as low in the tree as possible.
func (b *taBuilder) emitFixups(proxiesOnly bool) {
	emitted := 0
	for {
		var stage Stage
		for _, st := range b.subs {
			f := st.fullMask()
			e := 1 << log2Floor(len(st.units))
			var ready, needy []int
			for u, un := range st.units {
				if proxiesOnly && u >= e {
					continue
				}
				for _, host := range un.members {
					if b.know[host] == f {
						ready = append(ready, host)
					} else {
						needy = append(needy, host)
					}
				}
			}
			used := make(map[int]bool, len(ready))
			for _, nh := range needy {
				donor := -1
				for _, rh := range ready {
					if !used[rh] && b.unitOf[rh] == b.unitOf[nh] {
						donor = rh
						break
					}
				}
				if donor == -1 {
					for _, rh := range ready {
						if !used[rh] {
							donor = rh
							break
						}
					}
				}
				if donor == -1 {
					continue // try again next round
				}
				used[donor] = true
				stage = append(stage, Pair{int32(b.rankOf[donor]), int32(b.rankOf[nh])})
			}
		}
		if !b.commit(stage) {
			return
		}
		emitted++
		if emitted > 64 {
			panic("cps: topo-aware: fixup did not converge")
		}
	}
}

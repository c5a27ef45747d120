package route

import (
	"fmt"
	"slices"
)

// Clone returns an independent deep copy of the forwarding tables under a
// new name, backed by its own flat arena. Fault-resilient engines clone
// the healthy baseline and repair only the columns a fault touched,
// instead of regenerating every table.
func (f *LFT) Clone(name string) *LFT {
	c := allocLFT(f.T, name)
	copy(c.uplink, f.uplink)
	for i, row := range f.Out {
		copy(c.Out[i], row)
	}
	return c
}

// Repatch returns a copy of the compiled arena with the tails towards the
// given destination columns re-walked through inner (typically a locally
// repaired LFT) — rows x dirty destinations, no other pair is touched. A
// patched tail the shared slot-fill refuses (its new walk fails, is
// non-minimal, or outgrows the stride) breaks every pair reading it — the
// lenient-compile contract — as does a source whose repaired table no
// longer sends the column through its head, and every pair touching a
// host in brokenHosts (hosts that lost their only uplink; inner must fail
// their walks too).
// The grouping tables are shared with the receiver (both stay immutable);
// only the entry arena is copied, which is what makes a few-column repair
// cheap relative to a full CompileLenient rebuild.
//
// Pairs already broken in the receiver stay broken: Repatch narrows the
// served set, it never revives a pair, so repair from a pristine healthy
// arena rather than chaining patches across fault sets.
func (c *Compiled) Repatch(inner Router, dsts []int, brokenHosts []int) (*Compiled, error) {
	t := inner.Topology()
	if t.NumHosts() != c.n {
		return nil, fmt.Errorf("route: repatch %s: inner router has %d hosts, arena %d", c.Label(), t.NumHosts(), c.n)
	}
	lft, _ := inner.(*LFT)
	if lft == nil && len(c.rep) < c.n {
		return nil, fmt.Errorf("route: repatch %s: shared rows need forwarding tables, not %s", c.Label(), inner.Label())
	}
	p := *c
	p.inner = inner
	p.c16, p.c32 = slices.Clone(c.c16), slices.Clone(c.c32)
	p.broken = append([]uint64(nil), c.broken...)
	for _, h := range brokenHosts {
		if h < 0 || h >= c.n {
			return nil, fmt.Errorf("route: repatch %s: host %d out of range [0,%d)", c.Label(), h, c.n)
		}
		for o := 0; o < c.n; o++ {
			if o != h {
				p.markBroken(h, o)
				p.markBroken(o, h)
			}
		}
	}
	fill := p.filler(inner, true)
	refused := make([][]int32, len(c.rep))
	for _, dst := range dsts {
		if dst < 0 || dst >= c.n {
			return nil, fmt.Errorf("route: repatch %s: destination %d out of range [0,%d)", c.Label(), dst, c.n)
		}
		for row := range refused {
			if fill(row, dst) != nil {
				refused[row] = append(refused[row], int32(dst))
			}
		}
		for src := range p.rowOf {
			if src != dst && p.head[src] != NoEntry && lft.OutPort(t.HostID(src), dst) != t.Host(src).Up[0] {
				p.markBroken(src, dst)
			}
		}
	}
	p.breakRefused(refused)
	return &p, nil
}

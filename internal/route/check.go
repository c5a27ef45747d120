package route

import (
	"fmt"

	"fattree/internal/topo"
)

// Verify checks that the tables deliver every source-destination pair over
// an up*/down* path of the minimal length 2*LCALevel. pairs limits the
// number of (src,dst) combinations checked per source (0 = all); sources
// are always all checked.
func Verify(f *LFT, pairsPerSrc int) error {
	t := f.T
	n := t.NumHosts()
	for src := 0; src < n; src++ {
		step := 1
		if pairsPerSrc > 0 && n > pairsPerSrc {
			step = n / pairsPerSrc
		}
		for dst := 0; dst < n; dst += step {
			if dst == src {
				continue
			}
			if err := VerifyPath(f, src, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyPath checks a single pair: delivery, up*/down* shape, minimality.
func VerifyPath(f *LFT, src, dst int) error {
	hops, err := f.Trace(src, dst)
	if err != nil {
		return err
	}
	descending := false
	for i, h := range hops {
		if h.Up && descending {
			return fmt.Errorf("route: %s: %d->%d climbs after descending at hop %d", f.Name, src, dst, i)
		}
		if !h.Up {
			descending = true
		}
	}
	if want := 2 * f.T.Spec.LCALevel(src, dst); len(hops) != want {
		return fmt.Errorf("route: %s: %d->%d takes %d hops, want minimal %d", f.Name, src, dst, len(hops), want)
	}
	return nil
}

// DownPortConflicts counts Theorem 2 violations: for every switch down
// port it tallies how many distinct destinations are ever routed *through*
// that port (over all-to-all traffic) and returns the number of ports
// carrying more than one destination. D-Mod-K on a complete RLFT must
// return 0.
func DownPortConflicts(f *LFT) (int, error) {
	t := f.T
	n := t.NumHosts()
	// destOn[port] = first destination seen on this down port, or -1.
	destOn := make([]int, len(t.Ports))
	for i := range destOn {
		destOn[i] = -1
	}
	conflicts := make(map[topo.PortID]bool)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			err := f.Walk(src, dst, func(l topo.LinkID, up bool) {
				if up {
					return
				}
				switch out := t.Links[l].Upper; destOn[out] {
				case -1:
					destOn[out] = dst
				case dst:
				default:
					conflicts[out] = true
				}
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return len(conflicts), nil
}

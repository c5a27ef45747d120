package route

import "fattree/internal/topo"

// SetEntry writes a raw port number into node id's cell of dst's column,
// bypassing SetOutPort's check: how a test builds a table no builder
// would.
func SetEntry(f *LFT, id topo.NodeID, dst int, e uint8) {
	f.store(dst)[int(id)-f.off] = e
}

// WalkFrom is LFT.walkFrom: the hops from any node towards dst.
func WalkFrom(f *LFT, id topo.NodeID, dst int, visit func(topo.LinkID, bool)) error {
	return f.walkFrom(id, dst, visit)
}

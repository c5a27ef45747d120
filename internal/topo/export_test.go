package topo

// SameAsPerNode holds Build to the per-node builder (build_test.go), for
// the external tests that draw fabrics from internal/invariant.
var SameAsPerNode = sameAsPerNode

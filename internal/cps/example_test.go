package cps_test

import (
	"fmt"

	"fattree/internal/cps"
)

// Walk the first stages of a Binomial broadcast (the paper's worked
// example from Section III).
func ExampleBinomial() {
	s := cps.Binomial(1024)
	for st := 0; st < 3; st++ {
		fmt.Printf("stage %d:", st)
		for _, p := range s.Stage(st) {
			fmt.Printf(" %d->%d", p.Src, p.Dst)
		}
		fmt.Println()
	}
	// Output:
	// stage 0: 0->1
	// stage 1: 0->2 1->3
	// stage 2: 0->4 1->5 2->6 3->7
}

// Every unidirectional stage sits inside a Shift stage — the property
// that makes the Shift the canonical worst case.
func ExampleIsSubPermutationOfShift() {
	n := 32
	d := cps.Dissemination(n)
	ok := true
	for s := 0; s < d.NumStages(); s++ {
		ok = ok && cps.IsSubPermutationOfShift(d.Stage(s), n)
	}
	fmt.Println("dissemination ⊂ shift:", ok)
	// Output:
	// dissemination ⊂ shift: true
}

// The Section VI sequence follows the tree instead of the flat rank.
func ExampleTopoAwareRecursiveDoubling() {
	s, err := cps.TopoAwareRecursiveDoubling([]int{18, 18})
	if err != nil {
		panic(err)
	}
	// Per level of 18 children: a pre stage folding the two spare
	// children onto proxies, log2(16) = 4 XOR stages and a post stage.
	fmt.Println("stages:", s.NumStages())
	fmt.Println("completes an allreduce:", cps.CoversAllReduce(s))
	// Output:
	// stages: 12
	// completes an allreduce: true
}

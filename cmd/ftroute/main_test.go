package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

// The goldens were recorded from the binary that still had -routing:
// minhop-random-7 and dmodk-naive are its `-routing X` outputs, which
// `-engine X` must reproduce byte for byte.
func TestGolden(t *testing.T) {
	rlft := []string{"-topo", "rlft2:4,8"}
	with := func(extra ...string) []string { return append(append([]string(nil), rlft...), extra...) }
	clitest.Run(t, "ftroute", setup, []clitest.Case{
		{Name: "verify-324", Args: []string{"-topo", "324", "-verify"}},
		{Name: "dump-rlft2", Args: rlft},
		{Name: "dump-rlft2-dmodk", Golden: "dump-rlft2", Args: with("-engine", "dmodk")},
		{Name: "trace-324", Args: []string{"-topo", "324", "-trace", "0,323"}},
		{Name: "minhop-random-7", Args: with("-engine", "minhop-random", "-seed", "7", "-verify", "-dump")},
		{Name: "dmodk-naive", Args: with("-engine", "dmodk-naive", "-verify", "-dump")},
		{Name: "active", Args: with("-active", "0,1,2,3,8,9,10,11", "-verify", "-dump")},
		// Naming the default engine used to be refused with "-active is
		// incompatible with -engine".
		{Name: "active-dmodk", Golden: "active", Args: with("-engine", "dmodk", "-active", "0,1,2,3,8,9,10,11", "-verify", "-dump")},
		{Name: "active-dup", Args: with("-active", "0,0"), Exit: 1, Stderr: "ftroute: route: duplicate active host 0"},
		{Name: "active-garbage", Args: with("-active", "0,x"), Exit: 1, Stderr: `ftroute: bad -active entry "x"`},
		{Name: "active-range", Args: with("-active", "0,99"), Exit: 1, Stderr: "ftroute: route: active host out of range [0,32)"},
		{Name: "active-naive", Args: with("-engine", "dmodk-naive", "-active", "0,1"), Exit: 1, Stderr: "an active set requires dmodk"},
		{Name: "smodk", Args: with("-engine", "smodk", "-verify"), Exit: 1, Stderr: `engine "smodk" has no forwarding-table realization`},
		{Name: "bad-engine", Args: with("-engine", "nope"), Exit: 1, Stderr: `unknown engine "nope" (registered: dmodk,`},
		{Name: "engine-list", Args: []string{"-engine", "list"}},
		{Name: "bad-trace", Args: with("-trace", "5"), Exit: 1, Stderr: "ftroute: trace wants src,dst"},
		{Name: "trace-out-of-range", Args: with("-trace", "0,32"), Exit: 1, Stderr: `ftroute: trace wants src,dst with hosts in [0,32), not -trace "0,32"`},
		{Name: "trace-negative", Args: with("-trace", "-1,0"), Exit: 1, Stderr: `ftroute: trace wants src,dst with hosts in [0,32), not -trace "-1,0"`},
	})
}

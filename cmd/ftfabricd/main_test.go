package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

// Only the paths that return before the listener opens: serving is
// covered by internal/fmgr's tests and scripts/daemon_smoke.sh.
func TestGolden(t *testing.T) {
	clitest.Run(t, "ftfabricd", setup, []clitest.Case{
		{Name: "engine-list", Args: []string{"-engine", "list"}},
		{Name: "bad-spec", Args: []string{"-topo", "nope"}, Exit: 1, Stderr: `ftfabricd: topo: unrecognized spec "nope"`},
		{Name: "bad-engine", Args: []string{"-topo", "rlft2:4,8", "-engine", "nope"}, Exit: 1, Stderr: `ftfabricd: fmgr: engine: unknown engine "nope" (registered: dmodk,`},
		{Name: "bad-flag", Args: []string{"-nope"}, Exit: 2, Stderr: "flag provided but not defined: -nope"},
		{Name: "bad-addr", Args: []string{"-topo", "rlft2:4,8", "-addr", "127.0.0.1:99999"}, Exit: 1, Stderr: "ftfabricd: listen tcp"},
	})
}

package main

import (
	"regexp"
	"testing"

	"fattree/internal/cli/clitest"
)

// rerouteTime matches the one wall-clock column of the table (with the
// padding its width moves) and field of the document.
var rerouteTime = regexp.MustCompile(`[ \t]*\d+us[ \t]*|"reroute_us": \d+`)

func TestGolden(t *testing.T) {
	rlft := func(extra ...string) []string { return append([]string{"-topo", "rlft2:4,8"}, extra...) }
	clitest.Run(t, "ftbakeoff", setup, []clitest.Case{
		{Name: "table", Args: rlft(), Scrub: rerouteTime},
		{Name: "json", Args: rlft("-json"), Scrub: rerouteTime},
		{Name: "sim", Args: rlft("-engines", "dmodk,fault-resilient", "-sim"), Scrub: rerouteTime},
		{Name: "gate-fails", Args: rlft("-min-routability", "99"), Scrub: rerouteTime, Exit: 1,
			Stderr: "ftbakeoff: level 1-link: engine dmodk-naive routability 94.35% below gate 99.00%"},
		{Name: "gate-passes", Args: rlft("-engines", "dmodk,fault-resilient", "-min-routability", "99"), Scrub: rerouteTime},
		{Name: "bad-sim-stages", Args: rlft("-sim", "-sim-stages", "-1"), Exit: 1, Stderr: "ftbakeoff: -sim-stages -1: want at least one stage"},
		{Name: "zero-sim-stages", Args: rlft("-sim", "-sim-stages", "0"), Exit: 1, Stderr: "ftbakeoff: -sim-stages 0: want at least one stage"},
		{Name: "negative-min-routability", Args: rlft("-min-routability", "-5"), Exit: 1, Stderr: "ftbakeoff: -min-routability -5: want a percentage in [0, 100]"},
		{Name: "min-routability-over-100", Args: rlft("-min-routability", "150"), Exit: 1, Stderr: "ftbakeoff: -min-routability 150: want a percentage in [0, 100]"},
		{Name: "zero-bytes", Args: rlft("-sim", "-bytes", "0"), Exit: 1, Stderr: "ftbakeoff: -bytes 0: want at least one byte a message"},
		{Name: "bad-engine", Args: rlft("-engines", "nope"), Exit: 1, Stderr: `ftbakeoff: engine: unknown engine "nope" (registered: dmodk,`},
	})
}

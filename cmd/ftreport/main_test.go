package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.RunMain(t, dispatch, []clitest.Case{
		{Name: "blame-rd-random", Args: []string{"blame", "-topo", "128", "-cps", "recursive-doubling", "-order", "random", "-top", "3"}},
		{Name: "blame-topo-aware-json", Args: []string{"blame", "-topo", "128", "-cps", "topo-aware", "-order", "topology", "-json"}},
		{Name: "blame-drop18", Args: []string{"blame", "-topo", "324", "-cps", "shift", "-order", "topology", "-drop", "18"}},
		{Name: "blame-drop5-random", Args: []string{"blame", "-topo", "rlft2:4,8", "-cps", "shift", "-order", "random", "-seed", "4", "-drop", "5", "-drop-seed", "2", "-top", "2"}},
		{Name: "blame-adversarial", Args: []string{"blame", "-topo", "rlft2:4,8", "-cps", "ring", "-order", "adversarial", "-top", "2"}},
		{Name: "blame-adversarial-drop", Args: []string{"blame", "-topo", "324", "-order", "adversarial", "-drop", "18"}, Exit: 1, Stderr: "ftreport: adversarial ordering supports full population only"},
		{Name: "blame-bad-order", Args: []string{"blame", "-topo", "128", "-order", "nope"}, Exit: 1, Stderr: `ftreport: unknown ordering "nope"`},
		{Name: "blame-negative-top", Args: []string{"blame", "-topo", "128", "-top", "-1"}, Exit: 1, Stderr: "ftreport: -top -1: want zero (every flow) or more flows a link"},
		{Name: "html", Args: []string{"html", "-metrics", "testdata/probes.jsonl", "-trace", "testdata/trace.json", "-stamp=false", "-o", "-"}},
		{Name: "html-no-input", Args: []string{"html"}, Exit: 1, Stderr: "ftreport: html: need at least one of -metrics"},
		// Every input flag at once, over fixtures recorded from their real
		// producers (ftsim -topo 128 -cps ring -order random -sample 2
		// -bytes 8192 -probe-interval 4us -metrics, a daemon's journal
		// after one fault, a two-level sweep).
		{Name: "html-all-inputs", Args: []string{"html", "-metrics", "testdata/ring128.jsonl", "-trace", "testdata/trace.json",
			"-load", "testdata/load.json", "-events", "testdata/events.json",
			"-stamp=false", "-max-heatmap-rows", "8", "-o", "-"}},
		// A row cap below one used to fall back to 64 silently.
		{Name: "zero-heatmap-rows", Args: []string{"html", "-metrics", "testdata/probes.jsonl", "-max-heatmap-rows", "0", "-o", "-"},
			Exit: 1, Stderr: "ftreport: -max-heatmap-rows 0: want at least one row"},
		{Name: "negative-heatmap-rows", Args: []string{"html", "-metrics", "testdata/probes.jsonl", "-max-heatmap-rows", "-3", "-o", "-"},
			Exit: 1, Stderr: "ftreport: -max-heatmap-rows -3: want at least one row"},
		{Name: "no-args", Exit: 2, Stderr: "usage: ftreport <blame|html> [flags]"},
		{Name: "bad-subcommand", Args: []string{"nope"}, Exit: 2, Stderr: `ftreport: unknown subcommand "nope"`},
	})
}

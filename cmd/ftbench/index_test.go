package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentListHasOneOwner holds the three places that list the
// experiments to one set: the experiments table here, DESIGN.md's
// experiment index (one `cmd/ftbench -exp KEY` cell per row), and
// results/paper_scale.txt (one "== " title per table -exp all renders).
func TestExperimentListHasOneOwner(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## Experiment index\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Experiment index" section`)
	}
	index, _, _ = strings.Cut(index, "\n## ")
	var indexed []string
	for _, m := range regexp.MustCompile("`cmd/ftbench -exp ([^`]+)`").FindAllStringSubmatch(index, -1) {
		indexed = append(indexed, m[1])
	}
	slices.Sort(indexed)
	ks := keys()
	slices.Sort(ks)
	if !slices.Equal(indexed, ks) {
		t.Errorf("DESIGN.md's experiment index regenerates %v; ftbench -exp runs %v", indexed, ks)
	}

	results, err := os.ReadFile("../../results/paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	titles := 0
	for _, line := range bytes.Split(results, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("== ")) {
			titles++
		}
	}
	if titles != len(experiments) {
		t.Errorf("results/paper_scale.txt holds %d tables; ftbench -exp all renders %d", titles, len(experiments))
	}
}

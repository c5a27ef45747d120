package exp

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"fattree/internal/des"
	"fattree/internal/netsim"
	"fattree/internal/topo"
)

func renderOK(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.String()
}

func TestFigure1(t *testing.T) {
	tab, err := Figure1(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// The routing-aware row must show HSD 1 and 0 hot links.
	if v, ok := cell(tab, "routing-aware", 1); !ok || v != "1" {
		t.Errorf("routing-aware max HSD = %q, want 1", v)
	}
	if v, _ := cell(tab, "routing-aware", 2); v != "0" {
		t.Errorf("routing-aware hot links = %q, want 0", v)
	}
	// Most random rows must show contention.
	hot := 0
	for _, row := range tab.Rows[1:] {
		if row[1] != "1" {
			hot++
		}
	}
	if hot < 3 {
		t.Errorf("only %d of 5 random orders congested", hot)
	}
	out := renderOK(t, tab)
	if !strings.Contains(out, "Figure 1") {
		t.Error("render lacks title")
	}
}

func testFigure2Opts() Figure2Opts {
	o := DefaultFigure2Opts()
	o.Cluster = topo.Cluster128
	o.Sizes = []int64{8 << 10, 128 << 10}
	o.ShiftStages = 4
	return o
}

func TestFigure2SmallScale(t *testing.T) {
	tab, err := Figure2(testFigure2Opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	for _, row := range tab.Rows {
		shift, rd := parse(row[1]), parse(row[2])
		if shift <= 0 || shift > 1.01 || rd <= 0 || rd > 1.01 {
			t.Errorf("size %s: normalized BW out of range: shift=%v rd=%v", row[0], shift, rd)
		}
		// Random order must lose bandwidth (well under 1).
		if shift > 0.95 {
			t.Errorf("size %s: shift BW %v suspiciously ideal for random order", row[0], shift)
		}
	}
	// Paper shape: large messages no faster than small ones for shift.
	small := parse(tab.Rows[0][1])
	large := parse(tab.Rows[1][1])
	if large > small*1.1 {
		t.Errorf("bandwidth grows with message size (%v -> %v), contradicting Figure 2", small, large)
	}
}

func TestFigure3SmallScale(t *testing.T) {
	o := Figure3Opts{
		Clusters:    []topo.PGFT{topo.Cluster128, topo.Cluster324},
		Seeds:       5,
		ShiftStride: 7,
	}
	tab, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	mean := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	// Columns: nodes, binomial, butterfly, dissemination, ring, shift,
	// tournament. Ring and shift must grow with cluster size and
	// exceed binomial/tournament.
	for _, row := range tab.Rows {
		if mean(row[4]) <= mean(row[1]) {
			t.Errorf("nodes=%s: ring (%s) not worse than binomial (%s)", row[0], row[4], row[1])
		}
		if mean(row[5]) <= mean(row[6]) {
			t.Errorf("nodes=%s: shift (%s) not worse than tournament (%s)", row[0], row[5], row[6])
		}
	}
	if mean(tab.Rows[1][4]) <= mean(tab.Rows[0][4]) {
		t.Errorf("ring HSD does not grow with cluster size: %s vs %s", tab.Rows[0][4], tab.Rows[1][4])
	}
}

func TestTable3SmallScale(t *testing.T) {
	o := Table3Opts{
		Cases: []Table3Case{
			{"128 full", topo.Cluster128, 0, 1},
			{"128 Cont.-8", topo.Cluster128, 8, 1},
			{"324 Cont.-18", topo.Cluster324, 18, 1},
		},
		RandomSeeds: 3,
		ShiftStride: 3,
	}
	tab, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "1.00" {
			t.Errorf("%s: proposed shift HSD = %s, want 1.00", row[0], row[3])
		}
		rnd, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rnd <= 1.0 {
			t.Errorf("%s: random ranking HSD = %v, expected > 1", row[0], rnd)
		}
	}
}

func TestRingAdversarialSmallScale(t *testing.T) {
	o := RingOpts{Cluster: topo.Cluster324, Bytes: 64 << 10, Config: netsim.DefaultConfig()}
	tab, err := RingAdversarial(o)
	if err != nil {
		t.Fatal(err)
	}
	goodBW, _ := cell(tab, "topology-aware", 2)
	advBW, _ := cell(tab, "adversarial", 2)
	g, err := strconv.ParseFloat(goodBW, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := strconv.ParseFloat(advBW, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.9 {
		t.Errorf("topology-aware ring BW = %v, want ~1", g)
	}
	// K=18: expect roughly an order of magnitude degradation.
	if a > g/5 {
		t.Errorf("adversarial BW %v not dramatically below ordered %v", a, g)
	}
	advHSD, _ := cell(tab, "adversarial", 1)
	h, err := strconv.ParseFloat(advHSD, 64)
	if err != nil {
		t.Fatal(err)
	}
	if h < 16 {
		t.Errorf("adversarial HSD = %v, want ~K=18", h)
	}
}

func TestContentionFreeSmallScale(t *testing.T) {
	o := CFOpts{Cluster: topo.Cluster128, Bytes: 64 << 10, ShiftStages: 4, Config: netsim.DefaultConfig()}
	tab, err := ContentionFree(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for i, row := range tab.Rows[:2] {
		if row[1] != "1.00" {
			t.Errorf("%s: HSD = %s, want 1.00", row[0], row[1])
		}
		bw, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The shift keeps every host streaming; the topo-aware RD has
		// pre/post stages where only some hosts transmit, diluting the
		// aggregate metric without contention.
		if i == 0 && bw < 0.9 {
			t.Errorf("%s: normalized BW = %v, want ~1", row[0], bw)
		}
		slow, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if slow > 1.05 {
			t.Errorf("%s: stage slowdown = %v, want ~1.0 (contention free)", row[0], slow)
		}
	}
}

func TestWrapAblation(t *testing.T) {
	tab, err := WrapAblation(topo.Cluster128, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		mod, _ := strconv.Atoi(row[2])
		max, _ := strconv.Atoi(row[3])
		if mod == 0 && max != 1 {
			t.Errorf("drop=%s: K | N' but max HSD = %d", row[0], max)
		}
		if mod != 0 && max < 2 {
			t.Errorf("drop=%s: K does not divide N' but max HSD = %d (expected wrap collision)", row[0], max)
		}
	}
}

func TestRoutingAblation(t *testing.T) {
	// A 3-level tree: the naive variant only diverges from equation (1)
	// above the leaf level.
	tab, err := RoutingAblation(topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cell(tab, "d-mod-k", 1); !ok || v != "1" {
		t.Errorf("d-mod-k max HSD = %q, want 1", v)
	}
	for _, name := range []string{"d-mod-k-naive", "minhop-random"} {
		v, ok := cell(tab, name, 1)
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		if hsd, _ := strconv.Atoi(v); hsd < 2 {
			t.Errorf("%s max HSD = %s, expected congestion", name, v)
		}
	}
}

func TestBidirAblation(t *testing.T) {
	tab, err := BidirAblation(topo.Cluster324)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := cell(tab, "recursive-doubling", 2)
	ta, _ := cell(tab, "topo-aware-recursive-doubling", 2)
	if ta != "1" {
		t.Errorf("topo-aware max HSD = %s, want 1", ta)
	}
	if v, _ := strconv.Atoi(flat); v < 2 {
		t.Errorf("flat recursive doubling max HSD = %s, expected > 1", flat)
	}
}

func TestTableRenderAndCell(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"n1"},
	}
	out := renderOK(t, tab)
	for _, want := range []string{"== T ==", "longer", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if v, ok := cell(tab, "x", 1); !ok || v != "1" {
		t.Errorf("Cell(x,1) = %q,%v", v, ok)
	}
	if _, ok := cell(tab, "missing", 1); ok {
		t.Error("Cell found missing row")
	}
}

func TestMultiJob(t *testing.T) {
	tab, err := MultiJob(topo.Cluster324)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cell(tab, "aligned halves", 3); !ok || v != "1" {
		t.Errorf("aligned halves combined HSD = %q, want 1", v)
	}
	if v, ok := cell(tab, "aligned quarters", 3); !ok || v != "1" {
		t.Errorf("aligned quarters combined HSD = %q, want 1", v)
	}
	v, ok := cell(tab, "leaf-sharing pair", 3)
	if !ok {
		t.Fatal("missing leaf-sharing row")
	}
	if hsdV, _ := strconv.Atoi(v); hsdV < 2 {
		t.Errorf("leaf-sharing combined HSD = %s, expected contention", v)
	}
}

func TestBufferAblation(t *testing.T) {
	o := BufferOpts{
		Cluster: topo.Cluster128,
		Bytes:   64 << 10,
		Buffers: []int{1, 8, 32},
		Stages:  3,
		Seed:    1,
	}
	tab, err := BufferAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ordered, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		buffers, _ := strconv.Atoi(row[0])
		// A single credit stalls even contention-free traffic on the
		// credit round-trip; from 2 slots up the ordered pipeline runs
		// at full rate.
		if buffers >= 2 && ordered < 0.95 {
			t.Errorf("buffers=%s: ordered BW = %v, want ~1", row[0], ordered)
		}
		if buffers == 1 && ordered < 0.7 {
			t.Errorf("buffers=1: ordered BW = %v, even credit-starved should exceed 0.7", ordered)
		}
		random, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if random >= ordered {
			t.Errorf("buffers=%s: random BW %v not below ordered %v", row[0], random, ordered)
		}
	}
}

func TestJitterSensitivity(t *testing.T) {
	o := JitterOpts{
		Cluster: topo.Cluster128,
		Bytes:   64 << 10,
		Jitters: []des.Time{0, 20 * des.Microsecond, 100 * des.Microsecond},
		Stages:  3,
		Seed:    1,
	}
	tab, err := JitterSensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// Zero jitter: slowdown exactly 1.00 for both.
	if tab.Rows[0][2] != "1.00" || tab.Rows[0][4] != "1.00" {
		t.Errorf("zero-jitter row = %v, want unit slowdowns", tab.Rows[0])
	}
	// Slowdowns grow with jitter.
	prev := 1.0
	for _, row := range tab.Rows {
		s, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev-0.01 {
			t.Errorf("ordered slowdown not monotone: %v", tab.Rows)
		}
		prev = s
	}
	// Additivity: the ordered stage duration stays within base + jitter
	// (plus a small margin), never multiplicative queueing.
	baseMs, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	for i, row := range tab.Rows {
		jUs, _ := strconv.ParseFloat(row[0], 64)
		gotMs, _ := strconv.ParseFloat(row[1], 64)
		boundMs := baseMs + jUs/1000*1.05 + 0.005
		if gotMs > boundMs {
			t.Errorf("row %d: ordered stage %.3f ms exceeds additive bound %.3f ms", i, gotMs, boundMs)
		}
	}
}

func TestAdaptiveComparison(t *testing.T) {
	o := AdaptiveOpts{Cluster: topo.Cluster128, Bytes: 64 << 10, Seed: 1}
	tab, err := AdaptiveComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	det, ada, paper := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	// The deterministic random-order row loses bandwidth, in order.
	if parse(det[1]) > 0.9 {
		t.Errorf("deterministic random order BW = %s, expected loss", det[1])
	}
	if det[2] != "0" {
		t.Errorf("deterministic routing delivered %s packets out of order", det[2])
	}
	// The adaptive row recovers bandwidth but reorders packets.
	if parse(ada[1]) <= parse(det[1]) {
		t.Errorf("adaptive BW %s not above deterministic %s", ada[1], det[1])
	}
	if ada[2] == "0" {
		t.Error("adaptive per-packet routing delivered everything in order — suspicious")
	}
	// The paper's configuration: full bandwidth, in order.
	if parse(paper[1]) < 0.95 {
		t.Errorf("paper configuration BW = %s, want ~1", paper[1])
	}
	if paper[2] != "0" {
		t.Errorf("paper configuration reordered %s packets", paper[2])
	}
}

func TestTaperAblation(t *testing.T) {
	tab, err := TaperAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		max, _ := strconv.Atoi(row[3])
		floor, _ := strconv.Atoi(row[5])
		if max != floor {
			t.Errorf("taper %s: max HSD = %d, want exactly the floor %d", row[0], max, floor)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,with,commas", "1"}, {"y", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a,b\n", "\"x,with,commas\",1\n", "y,2\n", "# a note\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJSON(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x", "1"}, {"y", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string              `json:"schema"`
		Title  string              `json:"title"`
		Rows   []map[string]string `json:"rows"`
		Notes  []string            `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("RenderJSON output is not valid JSON: %v", err)
	}
	if doc.Schema != "fattree-table/v1" || doc.Title != "T" {
		t.Errorf("envelope = %q %q", doc.Schema, doc.Title)
	}
	if len(doc.Rows) != 2 || doc.Rows[0]["a"] != "x" || doc.Rows[1]["b"] != "2" {
		t.Errorf("rows = %v", doc.Rows)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "a note" {
		t.Errorf("notes = %v", doc.Notes)
	}
}

func TestSemanticsComparison(t *testing.T) {
	o := SemanticsOpts{Cluster: topo.Cluster128, Bytes: 32 << 10, Seed: 1}
	tab, err := SemanticsComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, row := range tab.Rows {
		async, dep := parse(row[1]), parse(row[2])
		if async > dep*1.001 {
			t.Errorf("%s: async %v slower than dependent %v", row[0], async, dep)
		}
		if parse(row[3]) <= 0 {
			t.Errorf("%s: barrier makespan %s", row[0], row[3])
		}
	}
	// The realistic (dependent) column must still rank the schedules:
	// topo-aware no slower than flat under the same order.
	if parse(tab.Rows[0][2]) > parse(tab.Rows[1][2])*1.001 {
		t.Errorf("dependent: topo-aware %s slower than flat %s", tab.Rows[0][2], tab.Rows[1][2])
	}
}

// cell returns the value of the first row of t whose column 0 is rowKey.
func cell(t *Table, rowKey string, col int) (string, bool) {
	for _, row := range t.Rows {
		if len(row) > col && row[0] == rowKey {
			return row[col], true
		}
	}
	return "", false
}

package topo

import (
	"strings"
	"testing"
)

func TestNewPGFTValidation(t *testing.T) {
	cases := []struct {
		name    string
		h       int
		m, w, p []int
		wantErr bool
	}{
		{"valid 2-level", 2, []int{4, 4}, []int{1, 2}, []int{1, 2}, false},
		{"zero levels", 0, nil, nil, nil, true},
		{"short m", 2, []int{4}, []int{1, 2}, []int{1, 2}, true},
		{"short w", 2, []int{4, 4}, []int{1}, []int{1, 2}, true},
		{"short p", 2, []int{4, 4}, []int{1, 2}, []int{1}, true},
		{"zero m", 2, []int{0, 4}, []int{1, 2}, []int{1, 2}, true},
		{"negative w", 2, []int{4, 4}, []int{-1, 2}, []int{1, 2}, true},
		{"zero p", 2, []int{4, 4}, []int{1, 2}, []int{1, 0}, true},
		{"single level", 1, []int{8}, []int{1}, []int{1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPGFT(tc.h, tc.m, tc.w, tc.p)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewPGFT(%d,%v,%v,%v) err=%v, wantErr=%v", tc.h, tc.m, tc.w, tc.p, err, tc.wantErr)
			}
		})
	}
}

// TestPortBound: a forwarding table entry names a port in one byte, so
// Validate refuses any node above MaxPorts ports, saying which level and
// how many, and a node of exactly MaxPorts still builds.
func TestPortBound(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"PGFT(1;256;1;1)", "level-1 node has 256 ports"},
		{"max:2,128", "level-1 node has 256 ports"},
		{"pgft:2;4,2;300,1;1,1", "level-0 node has 300 ports"},
	} {
		if _, err := ParseSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one saying %q", tc.spec, err, tc.want)
		}
	}
	for _, spec := range []string{"PGFT(1;255;1;1)", "PGFT(2;127,2;1,128;1,1)"} {
		g, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		tp, err := Build(g)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		most := 0
		for i := range tp.Nodes {
			most = max(most, tp.Nodes[i].NumPorts())
		}
		if most != MaxPorts {
			t.Fatalf("%s: largest node has %d ports, want %d", spec, most, MaxPorts)
		}
	}
}

func TestPGFTCounts(t *testing.T) {
	// Figure 4(b): 16 hosts, 8-port switches, PGFT(2;4,4;1,2;1,2).
	g := MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2})
	if got := g.NumHosts(); got != 16 {
		t.Errorf("NumHosts = %d, want 16", got)
	}
	if got := g.NumSwitches(1); got != 4 {
		t.Errorf("NumSwitches(1) = %d, want 4 leaves", got)
	}
	if got := g.NumSwitches(2); got != 2 {
		t.Errorf("NumSwitches(2) = %d, want 2 spines", got)
	}
	if got := g.TotalSwitches(); got != 6 {
		t.Errorf("TotalSwitches = %d, want 6", got)
	}
	if got := g.UpPorts(1); got != 4 {
		t.Errorf("UpPorts(1) = %d, want 4", got)
	}
	if got := g.DownPorts(1); got != 4 {
		t.Errorf("DownPorts(1) = %d, want 4", got)
	}
	if got := g.DownPorts(2); got != 8 {
		t.Errorf("DownPorts(2) = %d, want 8", got)
	}
	if got := g.UpPorts(2); got != 0 {
		t.Errorf("UpPorts(2) = %d, want 0 at the top", got)
	}
}

func TestFigure4XGFTvsPGFT(t *testing.T) {
	// Figure 4(a): same 16 hosts without parallel ports needs 4 spines
	// with only 4 of 8 ports used; (b) with p2=2 needs 2 fully used
	// spines. Both must keep CBB.
	xgft := MustPGFT(2, []int{4, 4}, []int{1, 4}, []int{1, 1})
	pgft := MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2})
	if !isXGFT(xgft) {
		t.Errorf("%v should be an XGFT", xgft)
	}
	if isXGFT(pgft) {
		t.Errorf("%v should not be an XGFT", pgft)
	}
	if !xgft.ConstantCBB() || !pgft.ConstantCBB() {
		t.Errorf("both Figure 4 trees must keep constant CBB")
	}
	if got := xgft.NumSwitches(2); got != 4 {
		t.Errorf("XGFT spines = %d, want 4", got)
	}
	if got := pgft.NumSwitches(2); got != 2 {
		t.Errorf("PGFT spines = %d, want 2", got)
	}
	// The XGFT wastes spine ports: 4 down ports on an 8-port switch.
	if got := xgft.DownPorts(2); got != 4 {
		t.Errorf("XGFT spine down ports = %d, want 4", got)
	}
	if got := pgft.DownPorts(2); got != 8 {
		t.Errorf("PGFT spine down ports = %d, want 8", got)
	}
	// Only the parallel-port variant is a Real Life Fat-Tree with K=4.
	if k, ok := pgft.IsRLFT(); !ok || k != 4 {
		t.Errorf("PGFT IsRLFT = (%d,%v), want (4,true)", k, ok)
	}
	if _, ok := xgft.IsRLFT(); ok {
		t.Errorf("the Figure 4(a) XGFT must not qualify as constant-radix RLFT")
	}
}

func TestPaperClusters(t *testing.T) {
	cases := []struct {
		name   string
		g      PGFT
		hosts  int
		arity  int
		levels int
	}{
		{"128", Cluster128, 128, 8, 2},
		{"324", Cluster324, 324, 18, 2},
		{"1728", Cluster1728, 1728, 12, 3},
		{"1944", Cluster1944, 1944, 18, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.NumHosts(); got != tc.hosts {
				t.Errorf("%v hosts = %d, want %d", tc.g, got, tc.hosts)
			}
			if tc.g.H != tc.levels {
				t.Errorf("%v levels = %d, want %d", tc.g, tc.g.H, tc.levels)
			}
			k, ok := tc.g.IsRLFT()
			if !ok {
				t.Fatalf("%v is not an RLFT", tc.g)
			}
			if k != tc.arity {
				t.Errorf("%v arity = %d, want %d", tc.g, k, tc.arity)
			}
		})
	}
}

func TestMaximalRLFT(t *testing.T) {
	g, err := MaximalRLFT(3, 18)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: RLFT(3;18,18,36;1,18,18;1,1,1) has 11664 hosts.
	if got := g.NumHosts(); got != 11664 {
		t.Errorf("maximal 3-level K=18 hosts = %d, want 11664", got)
	}
	if k, ok := g.IsRLFT(); !ok || k != 18 {
		t.Errorf("IsRLFT = (%d,%v), want (18,true)", k, ok)
	}
	if !isXGFT(g) {
		t.Errorf("maximal RLFT should have no parallel ports")
	}
	if _, err := MaximalRLFT(0, 18); err == nil {
		t.Errorf("MaximalRLFT(0,18) should fail")
	}
}

func TestKAryNTree(t *testing.T) {
	g, err := KAryNTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumHosts(); got != 64 {
		t.Errorf("4-ary-3-tree hosts = %d, want 64", got)
	}
	if !isXGFT(g) {
		t.Errorf("k-ary-n-tree must be an XGFT")
	}
	if !g.ConstantCBB() {
		t.Errorf("k-ary-n-tree must keep constant CBB")
	}
	if _, err := KAryNTree(0, 3); err == nil {
		t.Errorf("KAryNTree(0,3) should fail")
	}
}

func TestRLFT2Constructions(t *testing.T) {
	// leaves=2K degenerates to the maximal tree (p=1).
	g, err := RLFT2(18, 36)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumHosts(); got != 648 {
		t.Errorf("RLFT2(18,36) hosts = %d, want 648", got)
	}
	if k, ok := g.IsRLFT(); !ok || k != 18 {
		t.Errorf("RLFT2(18,36) IsRLFT = (%d,%v), want (18,true)", k, ok)
	}
	// leaves=18 matches Cluster324.
	g, err = RLFT2(18, 18)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != Cluster324.String() {
		t.Errorf("RLFT2(18,18) = %v, want %v", g, Cluster324)
	}
	// Invalid shapes.
	if _, err := RLFT2(18, 37); err == nil {
		t.Errorf("leaves > 2K should fail")
	}
	if _, err := RLFT2(18, 5); err == nil {
		t.Errorf("leaves not dividing 2K should fail")
	}
}

func TestRLFT3Constructions(t *testing.T) {
	g, err := RLFT3(18, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != Cluster1944.String() {
		t.Errorf("RLFT3(18,6) = %v, want %v", g, Cluster1944)
	}
	g, err = RLFT3(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != Cluster1728.String() {
		t.Errorf("RLFT3(12,12) = %v, want %v", g, Cluster1728)
	}
	if _, err := RLFT3(18, 7); err == nil {
		t.Errorf("groups not dividing 2K should fail")
	}
}

func TestArityRejectsIrregular(t *testing.T) {
	// Leaf has 4 down + 4 up, but second level has 4 down + 8 up: not
	// constant radix.
	g := MustPGFT(3, []int{4, 4, 8}, []int{1, 4, 8}, []int{1, 1, 1})
	if _, ok := g.Arity(); ok {
		t.Errorf("%v should not have constant arity", g)
	}
}

func TestHostDigitRoundTrip(t *testing.T) {
	g := Cluster1944
	for _, j := range []int{0, 1, 17, 18, 323, 324, 1000, 1943} {
		// Reconstruct j from its digits.
		got := 0
		mul := 1
		for i := 1; i <= g.H; i++ {
			got += g.HostDigit(j, i) * mul
			mul *= g.Mi(i)
		}
		if got != j {
			t.Errorf("digit round-trip of %d gave %d", j, got)
		}
	}
}

func TestStringNotation(t *testing.T) {
	g := Cluster324
	want := "PGFT(2;18,18;1,9;1,2)"
	if got := g.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestAllocationGranule(t *testing.T) {
	cases := []struct {
		g    PGFT
		want int
	}{
		{Cluster128, 8},    // prod(w)=8, p2=1
		{Cluster324, 18},   // prod(w)=9, p2=2
		{Cluster1728, 144}, // prod(w)=72, p3=2
		{Cluster1944, 324}, // prod(w)=54, p3=6
	}
	for _, tc := range cases {
		if got := tc.g.AllocationGranule(); got != tc.want {
			t.Errorf("%v granule = %d, want %d", tc.g, got, tc.want)
		}
	}
	// The paper's Section V example: the maximal 3-level 36-port tree
	// admits congestion-free sub-allocations in multiples of 324.
	g, err := MaximalRLFT(3, 18)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AllocationGranule(); got != 324 {
		t.Errorf("maximal RLFT(3,18) granule = %d, want 324 (the paper's sub-allocation unit)", got)
	}
}

// isXGFT reports whether the spec degenerates to an Extended Generalized
// Fat-Tree, i.e. no parallel ports anywhere.
func isXGFT(g PGFT) bool {
	for _, p := range g.P {
		if p != 1 {
			return false
		}
	}
	return true
}

package fabric

import (
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/schema"
	"fattree/internal/topo"
)

func TestDocJSONShape(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	doc := NewDoc(tp)
	if doc.Schema != schema.Fabric || doc.Hosts != 128 || doc.Topology != tp.Spec.String() {
		t.Fatalf("base doc: %+v", doc)
	}

	sn := NewSubnet(tp)
	inv, err := sn.Discover()
	if err != nil {
		t.Fatal(err)
	}
	doc.SetInventory(inv)
	if len(doc.Inv) != inv.Switches {
		t.Fatalf("%d inventory entries, want %d", len(doc.Inv), inv.Switches)
	}
	for i, sw := range doc.Inv {
		if !strings.HasPrefix(sw.GUID, "0x") || len(sw.GUID) != 18 {
			t.Fatalf("GUID %q not 0x + 16 hex digits", sw.GUID)
		}
		if i > 0 && doc.Inv[i-1].GUID >= sw.GUID {
			t.Fatalf("inventory not sorted: %q before %q", doc.Inv[i-1].GUID, sw.GUID)
		}
	}

	fs := NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(3, 1); err != nil {
		t.Fatal(err)
	}
	_, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	doc.SetFaults(fs, res)
	if len(doc.Faults.FailedLinks) != 3 {
		t.Fatalf("failed links: %v", doc.Faults.FailedLinks)
	}
	for i := 1; i < len(doc.Faults.FailedLinks); i++ {
		if doc.Faults.FailedLinks[i-1] >= doc.Faults.FailedLinks[i] {
			t.Fatalf("failed links not ascending: %v", doc.Faults.FailedLinks)
		}
	}

	// Round-trip: the optional sections survive, the empty ones vanish.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != schema.Fabric || back.Faults == nil || back.Faults.BrokenPairs != res.BrokenPairs {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.HSD != nil {
		t.Fatal("HSD section materialized from nothing")
	}
	bare, err := json.Marshal(NewDoc(tp))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"faults", "hsd", "switches_by_guid", "routing"} {
		if strings.Contains(string(bare), `"`+key+`"`) {
			t.Fatalf("bare doc leaks empty %q section: %s", key, bare)
		}
	}
}

func TestFailedLinksTracksReviveOrder(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	fs := NewFaultSet(tp)
	// Fail out of order; FailedLinks must come back ascending.
	var fabricLinks []topo.LinkID
	for i, l := range tp.Links {
		if l.Level >= 2 {
			fabricLinks = append(fabricLinks, topo.LinkID(i))
		}
	}
	fs.Fail(fabricLinks[5])
	fs.Fail(fabricLinks[1])
	fs.Fail(fabricLinks[3])
	got := fs.FailedLinks()
	if len(got) != 3 || got[0] != fabricLinks[1] || got[1] != fabricLinks[3] || got[2] != fabricLinks[5] {
		t.Fatalf("FailedLinks = %v", got)
	}
	fs.Revive(fabricLinks[3])
	if got := fs.FailedLinks(); len(got) != 2 || got[0] != fabricLinks[1] || got[1] != fabricLinks[5] {
		t.Fatalf("after revive: %v", got)
	}
}

// TestParseDocAcceptsEmitted: every document this package emits —
// bare, inventory, faults, HSD — parses back and validates.
func TestParseDocAcceptsEmitted(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	doc := NewDoc(tp)
	sn := NewSubnet(tp)
	inv, err := sn.Discover()
	if err != nil {
		t.Fatal(err)
	}
	doc.SetInventory(inv)
	fs := NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(3, 1); err != nil {
		t.Fatal(err)
	}
	_, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	doc.SetFaults(fs, res)
	doc.HSD = &HSDDoc{Sequence: "shift", Ordering: "topology", Stages: 127, MaxHSD: 1, AvgMaxHSD: 1, ContentionFree: true}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDoc(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Hosts != doc.Hosts || back.Faults.BrokenPairs != res.BrokenPairs {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestParseDocRejectsInconsistent: each schema rule catches its own
// class of corruption.
func TestParseDocRejectsInconsistent(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{2, 2}, []int{1, 2}, []int{1, 1}))
	base := func() *Doc { return NewDoc(tp) }
	for name, corrupt := range map[string]func(*Doc){
		"schema":          func(d *Doc) { d.Schema = "fattree-fabric/v0" },
		"topology":        func(d *Doc) { d.Topology = "nope" },
		"hosts":           func(d *Doc) { d.Hosts = 1 << 20 },
		"links":           func(d *Doc) { d.Links = -1 },
		"guid":            func(d *Doc) { d.Inv = []SwitchDoc{{GUID: "12ab", Ports: 4}} },
		"guid-order":      func(d *Doc) { d.Inv = []SwitchDoc{{GUID: "0x2", Ports: 4}, {GUID: "0x1", Ports: 4}} },
		"ports":           func(d *Doc) { d.Inv = []SwitchDoc{{GUID: "0x1", Ports: 0}} },
		"fault-range":     func(d *Doc) { d.Faults = &FaultDoc{FailedLinks: []int{d.Links}} },
		"fault-order":     func(d *Doc) { d.Faults = &FaultDoc{FailedLinks: []int{3, 2}} },
		"unroutable":      func(d *Doc) { d.Faults = &FaultDoc{UnroutableHosts: []int{d.Hosts}} },
		"broken-pairs":    func(d *Doc) { d.Faults = &FaultDoc{BrokenPairs: -1} },
		"hsd-avg":         func(d *Doc) { d.HSD = &HSDDoc{MaxHSD: 1, AvgMaxHSD: 2, ContentionFree: true} },
		"hsd-contradicts": func(d *Doc) { d.HSD = &HSDDoc{MaxHSD: 3, AvgMaxHSD: 2, ContentionFree: true} },
	} {
		d := base()
		corrupt(d)
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseDoc(strings.NewReader(string(raw))); err == nil {
			t.Errorf("%s: corrupted doc accepted", name)
		}
	}
	if _, err := ParseDoc(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
}

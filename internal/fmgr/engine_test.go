package fmgr

import (
	"slices"
	"strings"
	"testing"

	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/topo"
)

// TestConfigEngine runs the daemon under a non-default engine and checks
// the snapshot and the HTTP surface both report it.
func TestConfigEngine(t *testing.T) {
	m := newManager(t, "rlft2:4,8", func(c *Config) { c.Engine = "smodk" })
	m.Start()
	st := m.Current()
	if st.Engine != "smodk" || st.Routing != "s-mod-k" {
		t.Fatalf("engine %q routing %q, want smodk / s-mod-k", st.Engine, st.Routing)
	}
	if lftOf(st) != nil {
		t.Fatalf("s-mod-k has no forwarding-table realization, got LFT %q", lftOf(st).Name)
	}
	if st.Paths == nil || st.Paths.NumBroken() != 0 {
		t.Fatalf("healthy smodk arena: %+v", st.Paths)
	}
	h := m.Handler()
	rec, body := get(t, h, "/v1/fabric")
	if rec.Code != 200 || body["engine"] != "smodk" || body["routing"] != "s-mod-k" {
		t.Fatalf("fabric: %d engine=%v routing=%v", rec.Code, body["engine"], body["routing"])
	}
	rec, body = get(t, h, "/v1/route?src=0&dst=9")
	if rec.Code != 200 || body["engine"] != "smodk" {
		t.Fatalf("route: %d %v", rec.Code, body)
	}
	rec, body = get(t, h, "/v1/hsd")
	if rec.Code != 200 || body["engine"] != "smodk" {
		t.Fatalf("hsd: %d %v", rec.Code, body)
	}
}

// TestConfigEngineUnknown pins the self-correcting error: a bad engine
// name fails construction and the message lists the registered names.
func TestConfigEngineUnknown(t *testing.T) {
	_, err := New(Config{Topo: buildTopo(t, "rlft2:4,8"), Engine: "nope"})
	if err == nil {
		t.Fatal("New accepted an unknown engine")
	}
	for _, want := range []string{`"nope"`, "dmodk", "smodk", "fault-resilient"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// TestEngineRerouteUnderFault reruns the classic fault cycle under the
// fault-resilient name and checks the swapped snapshot stays valid,
// labeled, and serves exactly the tables and paths dmodk serves for the
// same fault: the name is a second one for the same engine.
func TestEngineRerouteUnderFault(t *testing.T) {
	m := newManager(t, "rlft2:4,8", func(c *Config) { c.Engine = "fault-resilient" })
	m.Start()
	link := fabricLink(t, m.t, 0)
	if _, err := m.InjectFaults([]topo.LinkID{link}, nil, 0); err != nil {
		t.Fatal(err)
	}
	st := waitEpoch(t, m, 2)
	if st.Engine != "fault-resilient" {
		t.Fatalf("engine %q after reroute", st.Engine)
	}
	if len(st.FailedLinks) != 1 || st.FailedLinks[0] != link {
		t.Fatalf("failed links %v, want [%d]", st.FailedLinks, link)
	}
	fs := fabric.NewFaultSet(m.t)
	fs.Fail(link)
	want, err := engine.Resolve("dmodk", m.t, engine.Options{}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if lftOf(st) == nil || lftOf(st).Name != want.LFT.Name {
		t.Fatalf("fault-resilient serves tables %v, dmodk %q", lftOf(st), want.LFT.Name)
	}
	n := m.t.NumHosts()
	for dst := 0; dst < n; dst++ {
		for id := range m.t.Nodes {
			if p, q := lftOf(st).OutPort(topo.NodeID(id), dst), want.LFT.OutPort(topo.NodeID(id), dst); p != q {
				t.Fatalf("node %d dst %d: fault-resilient port %d, dmodk %d", id, dst, p, q)
			}
		}
		for src := 0; src < n; src++ {
			got, err1 := st.Paths.PackedPath(src, dst)
			ref, err2 := want.Compiled.PackedPath(src, dst)
			if (err1 == nil) != (err2 == nil) || !slices.Equal(got, ref) {
				t.Fatalf("%d->%d: fault-resilient serves %v (%v), dmodk %v (%v)", src, dst, got, err1, ref, err2)
			}
		}
	}
	if st.Paths.NumBroken() != 0 {
		t.Fatalf("%d broken pairs after a 1-link incremental repair", st.Paths.NumBroken())
	}
	// Registry metadata is reachable for reports.
	found := false
	for _, info := range engine.Infos() {
		if info.Name == st.Engine && info.FaultAware {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry does not describe %s as fault-aware", st.Engine)
	}
}

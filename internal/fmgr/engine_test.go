package fmgr

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/schema"
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

// TestJobEngineLifecycle allocates a job under a specific engine and
// follows it end to end: snapshot ByEngine tables, /v1/route?engine=,
// /v1/jobs, the journal, and the cleanup after the job is freed.
func TestJobEngineLifecycle(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()

	req := httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"size":4,"engine":"fault-resilient"}`))
	rec, body := do(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("alloc: %d %v", rec.Code, body)
	}
	if body["engine"] != "fault-resilient" {
		t.Fatalf("alloc doc engine %v, want fault-resilient", body["engine"])
	}
	id := int(body["id"].(float64))

	st := m.Current()
	if st.Engine != "dmodk" {
		t.Fatalf("active engine %q, want dmodk", st.Engine)
	}
	for _, name := range []string{"dmodk", "fault-resilient"} {
		if st.ByEngine[name] == nil {
			t.Fatalf("epoch %d ByEngine missing %s (have %v)", st.Epoch, name, len(st.ByEngine))
		}
	}

	// The alternate tables answer /v1/route from the same epoch.
	rec, body = get(t, h, "/v1/route?src=0&dst=9&engine=fault-resilient")
	if rec.Code != 200 || body["engine"] != "fault-resilient" {
		t.Fatalf("route via job engine: %d %v", rec.Code, body)
	}
	if rec, body = get(t, h, "/v1/route?src=0&dst=9&engine=smodk"); rec.Code != http.StatusNotFound {
		t.Fatalf("route via engine with no tables: %d %v", rec.Code, body)
	} else if msg := body["error"].(string); !strings.Contains(msg, "dmodk, fault-resilient") {
		t.Fatalf("404 does not list the available engines: %q", msg)
	}

	rec, body = get(t, h, "/v1/jobs")
	jobs := body["jobs"].([]interface{})
	if rec.Code != 200 || len(jobs) != 1 {
		t.Fatalf("jobs: %d %v", rec.Code, body)
	}
	if eng := jobs[0].(map[string]interface{})["engine"]; eng != "fault-resilient" {
		t.Fatalf("job engine %v, want fault-resilient", eng)
	}

	// The journal's alloc record carries the engine, and the swap record
	// names the engine that produced the served tables.
	recs, _ := m.Events(0)
	var sawAlloc, sawSwap bool
	for _, r := range recs {
		if r.Kind == schema.EvAlloc && r.Engine == "fault-resilient" {
			sawAlloc = true
		}
		if r.Kind == schema.EvSwap && r.Engine == "dmodk" && strings.Contains(r.Detail, "engine=dmodk") {
			sawSwap = true
		}
	}
	if !sawAlloc || !sawSwap {
		t.Fatalf("journal missing engine stamps (alloc=%v swap=%v): %+v", sawAlloc, sawSwap, recs)
	}

	// Freeing the job retires its engine from the next snapshot.
	req = httptest.NewRequest("DELETE", fmt.Sprintf("/v1/jobs?id=%d", id), nil)
	if rec, body = do(t, h, req); rec.Code != http.StatusOK {
		t.Fatalf("free: %d %v", rec.Code, body)
	}
	if st = m.Current(); st.ByEngine["fault-resilient"] != nil {
		t.Fatalf("epoch %d still carries the freed job's engine tables", st.Epoch)
	}
}

// TestJobEngineUnknown checks both refusal layers: the HTTP handler's
// 400 and the manager API's registry error.
func TestJobEngineUnknown(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	h := m.Handler()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"size":4,"engine":"bogus"}`))
	rec, body := do(t, h, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("alloc with bogus engine: %d %v", rec.Code, body)
	}
	if msg := body["error"].(string); !strings.Contains(msg, "registered:") {
		t.Fatalf("400 does not list registered engines: %q", msg)
	}
	if _, err := m.AllocJobEngine(4, false, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("AllocJobEngine(bogus) = %v, want unknown-engine error", err)
	}
	// No placement leaked from the refused request.
	if jobs := m.Current().Jobs; len(jobs) != 0 {
		t.Fatalf("refused alloc leaked %d jobs", len(jobs))
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

package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fattree/internal/schema"
	"fattree/internal/topo"
)

// SwitchDoc is one discovered switch in a Doc.
type SwitchDoc struct {
	GUID  string `json:"guid"` // 0x-prefixed hex
	Ports int    `json:"ports"`
}

// FaultDoc summarizes the fault state and the reroute's collateral
// damage. FailedLinks lists dead link IDs in ascending order.
type FaultDoc struct {
	FailedLinks     []int `json:"failed_links"`
	UnroutableHosts []int `json:"unroutable_hosts"`
	BrokenPairs     int   `json:"broken_pairs"`
}

// HSDDoc is the cached Shift-HSD summary of the (re)routed tables.
type HSDDoc struct {
	Sequence       string  `json:"sequence"`
	Ordering       string  `json:"ordering"`
	Stages         int     `json:"stages"`
	MaxHSD         int     `json:"max_hsd"`
	AvgMaxHSD      float64 `json:"avg_max_hsd"`
	ContentionFree bool    `json:"contention_free"`
}

// Doc is the schema-stamped machine-readable fabric report: inventory,
// routing identity, and optional fault and contention sections.
type Doc struct {
	Schema   string      `json:"schema"`
	Topology string      `json:"topology"`
	Hosts    int         `json:"hosts"`
	Switches int         `json:"switches"`
	Links    int         `json:"links"`
	Routing  string      `json:"routing,omitempty"`
	Inv      []SwitchDoc `json:"switches_by_guid,omitempty"`
	Faults   *FaultDoc   `json:"faults,omitempty"`
	HSD      *HSDDoc     `json:"hsd,omitempty"`
}

// NewDoc starts a Doc with the topology identity filled in.
func NewDoc(t *topo.Topology) *Doc {
	return &Doc{
		Schema:   schema.Fabric,
		Topology: t.Spec.String(),
		Hosts:    t.NumHosts(),
		Switches: t.Spec.TotalSwitches(),
		Links:    len(t.Links),
	}
}

// SetInventory fills the discovery section from a sweep result.
func (d *Doc) SetInventory(inv *Inventory) {
	d.Hosts = inv.Hosts
	d.Switches = inv.Switches
	d.Links = inv.Links
	d.Inv = d.Inv[:0]
	for _, g := range inv.SortedSwitchGUIDs() {
		d.Inv = append(d.Inv, SwitchDoc{
			GUID:  guidString(g),
			Ports: inv.PortsBySwitch[g],
		})
	}
}

// SetFaults fills the fault section from a fault set and reroute result.
func (d *Doc) SetFaults(fs *FaultSet, res RerouteResult) {
	fd := &FaultDoc{
		FailedLinks:     []int{},
		UnroutableHosts: []int{},
		BrokenPairs:     res.BrokenPairs,
	}
	for _, l := range fs.FailedLinks() {
		fd.FailedLinks = append(fd.FailedLinks, int(l))
	}
	fd.UnroutableHosts = append(fd.UnroutableHosts, res.UnroutableHosts...)
	d.Faults = fd
}

func guidString(g GUID) string {
	return fmt.Sprintf("0x%016x", uint64(g))
}

// maxDocNodes caps the node count of a topology a document may ask
// Validate to build — generously above the 1944-host paper clusters but
// far below anything that could exhaust memory.
const maxDocNodes = 1 << 22

// tooLargeToValidate reports whether building the spec would exceed
// maxDocNodes hosts or switches, using overflow-safe arithmetic (the
// parsed tuple is untrusted input).
func tooLargeToValidate(g topo.PGFT) bool {
	mul := func(a, b int) int {
		if b != 0 && a > maxDocNodes/b {
			return maxDocNodes + 1
		}
		return a * b
	}
	hosts := 1
	for _, m := range g.M {
		hosts = mul(hosts, m)
	}
	if hosts > maxDocNodes {
		return true
	}
	total := 0
	for l := 1; l <= g.H; l++ {
		sw := 1
		for i := 0; i < l; i++ {
			sw = mul(sw, g.W[i])
		}
		for i := l; i < g.H; i++ {
			sw = mul(sw, g.M[i])
		}
		total += sw
		if total > maxDocNodes {
			return true
		}
	}
	return false
}

// ParseDoc decodes a fattree-fabric/v1 document and validates it against
// the schema's internal consistency rules: the topology tuple must
// parse, the inventory counts must fit it, GUIDs must be well-formed and
// strictly ascending, fault lists must name real links and hosts, and
// the HSD summary must be self-consistent (contention free iff max HSD
// is at most 1). Consumers of daemon or ftfabric output get either a
// document every emitter invariant holds for, or an error — never a
// half-plausible one.
func ParseDoc(r io.Reader) (*Doc, error) {
	var d Doc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("fabric: parse doc: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the document's internal consistency; see ParseDoc.
func (d *Doc) Validate() error {
	if d.Schema != schema.Fabric {
		return fmt.Errorf("fabric: doc schema %q, want %q", d.Schema, schema.Fabric)
	}
	g, err := topo.ParseSpec(d.Topology)
	if err != nil {
		return fmt.Errorf("fabric: doc topology: %w", err)
	}
	// Bound the build before materializing an attacker-sized fabric: a
	// validator must not allocate gigabytes because a document asked to.
	if tooLargeToValidate(g) {
		return fmt.Errorf("fabric: doc topology %s too large to validate", d.Topology)
	}
	t, err := topo.Build(g)
	if err != nil {
		return fmt.Errorf("fabric: doc topology: %w", err)
	}
	if d.Hosts < 0 || d.Hosts > t.NumHosts() {
		return fmt.Errorf("fabric: doc reports %d hosts, %s has %d", d.Hosts, d.Topology, t.NumHosts())
	}
	if d.Switches < 0 || d.Switches > g.TotalSwitches() {
		return fmt.Errorf("fabric: doc reports %d switches, %s has %d", d.Switches, d.Topology, g.TotalSwitches())
	}
	if d.Links < 0 || d.Links > len(t.Links) {
		return fmt.Errorf("fabric: doc reports %d links, %s has %d", d.Links, d.Topology, len(t.Links))
	}
	var prev uint64
	for i, sw := range d.Inv {
		if !strings.HasPrefix(sw.GUID, "0x") {
			return fmt.Errorf("fabric: doc switch %d: guid %q is not 0x-prefixed hex", i, sw.GUID)
		}
		guid, err := strconv.ParseUint(sw.GUID[2:], 16, 64)
		if err != nil {
			return fmt.Errorf("fabric: doc switch %d: guid %q: %v", i, sw.GUID, err)
		}
		if sw.Ports <= 0 {
			return fmt.Errorf("fabric: doc switch %s: %d ports", sw.GUID, sw.Ports)
		}
		if i > 0 && guid <= prev {
			return fmt.Errorf("fabric: doc switch %d: guid %s not strictly ascending", i, sw.GUID)
		}
		prev = guid
	}
	if f := d.Faults; f != nil {
		for i, l := range f.FailedLinks {
			if l < 0 || l >= d.Links {
				return fmt.Errorf("fabric: doc failed link %d out of range [0,%d)", l, d.Links)
			}
			if i > 0 && l <= f.FailedLinks[i-1] {
				return fmt.Errorf("fabric: doc failed links not strictly ascending at %d", l)
			}
		}
		for _, j := range f.UnroutableHosts {
			if j < 0 || j >= d.Hosts {
				return fmt.Errorf("fabric: doc unroutable host %d out of range [0,%d)", j, d.Hosts)
			}
		}
		if max := d.Hosts * (d.Hosts - 1); f.BrokenPairs < 0 || f.BrokenPairs > max {
			return fmt.Errorf("fabric: doc reports %d broken pairs, at most %d possible", f.BrokenPairs, max)
		}
	}
	if h := d.HSD; h != nil {
		if h.Stages < 0 || h.MaxHSD < 0 {
			return fmt.Errorf("fabric: doc hsd: %d stages, max %d", h.Stages, h.MaxHSD)
		}
		if h.AvgMaxHSD < 0 || h.AvgMaxHSD > float64(h.MaxHSD)+1e-9 {
			return fmt.Errorf("fabric: doc hsd: avg max %g exceeds max %d", h.AvgMaxHSD, h.MaxHSD)
		}
		if h.ContentionFree != (h.MaxHSD <= 1) {
			return fmt.Errorf("fabric: doc hsd: contention_free %v contradicts max HSD %d", h.ContentionFree, h.MaxHSD)
		}
	}
	return nil
}

package fabric

import (
	"fmt"

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

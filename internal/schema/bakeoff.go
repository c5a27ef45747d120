package schema

// EngineInfo describes a registered routing engine for listings and
// reports.
type EngineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// LFT reports whether the engine produces destination-based
	// forwarding tables programmable into InfiniBand-style hardware.
	LFT bool `json:"lft"`
	// FaultAware reports whether the engine actively reroutes around
	// dead links, rather than only refusing the pairs they break.
	FaultAware bool `json:"fault_aware"`
}

// BakeoffDoc is the bake-off verdict: one BakeoffLevel per fault-storm
// rung, one BakeoffResult per engine per rung.
type BakeoffDoc struct {
	Schema   string         `json:"schema"`
	Topology string         `json:"topology"`
	Hosts    int            `json:"hosts"`
	Seed     int64          `json:"seed"`
	Engines  []EngineInfo   `json:"engines"`
	Levels   []BakeoffLevel `json:"levels"`
}

// BakeoffLevel is one rung of the fault storm.
type BakeoffLevel struct {
	Name string `json:"name"`
	// FailedLinks are the dead link IDs at this rung (cumulative storms
	// list everything dead, not the delta).
	FailedLinks []int           `json:"failed_links"`
	Engines     []BakeoffResult `json:"engines"`
}

// BakeoffResult scores one engine at one fault level. When the engine
// failed outright, Err carries the error and every metric is zero.
type BakeoffResult struct {
	Engine string `json:"engine"`
	Err    string `json:"err,omitempty"`
	// RoutabilityPct is the percentage of ordered src!=dst pairs served.
	RoutabilityPct float64 `json:"routability_pct"`
	// Unroutable counts hosts that lost their only uplink.
	Unroutable int `json:"unroutable"`
	// BrokenPairs counts unserved ordered pairs between routable hosts.
	BrokenPairs int `json:"broken_pairs"`
	// MaxHSD and AvgMaxHSD summarize Shift over the served pairs;
	// ContentionFree means every stage stayed at HSD <= 1.
	MaxHSD         int     `json:"max_hsd"`
	AvgMaxHSD      float64 `json:"avg_max_hsd"`
	ContentionFree bool    `json:"contention_free"`
	// RerouteUS is the wall-clock microseconds the engine took to
	// produce tables for this fault level (table build + path compile).
	RerouteUS int64 `json:"reroute_us"`
	// MaxQueueDepth is netsim's worst input-buffer depth over the
	// sampled Shift stages; -1 when simulation was off.
	MaxQueueDepth int64 `json:"max_queue_depth"`
}

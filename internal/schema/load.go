package schema

// LoadLevel is one rung of a load sweep: a fixed concurrency (closed
// loop) or offered rate (open loop) held for DurationS seconds, with
// client-side latency quantiles and the server-side histogram estimate
// over the same window.
type LoadLevel struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency,omitempty"`
	OfferedRPS  float64 `json:"offered_rps,omitempty"`
	AchievedRPS float64 `json:"achieved_rps"`
	Sent        int64   `json:"sent"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed,omitempty"`     // open loop: ticks dropped at the outstanding cap
	ShedRPS     float64 `json:"shed_rps,omitempty"` // shed ticks per second of the measurement window
	DurationS   float64 `json:"duration_s"`
	// RoutesRPS is resolved routes per second: AchievedRPS times the
	// request batch size. For the JSON protocol (one route per request)
	// it equals AchievedRPS and may be omitted.
	RoutesRPS float64 `json:"routes_rps,omitempty"`
	// EpochRegressions counts binary responses whose epoch rolled back
	// relative to an earlier response in the same sweep — nonzero means
	// some replica served stale tables.
	EpochRegressions int64 `json:"epoch_regressions,omitempty"`

	// Client-side quantiles over exact samples, microseconds.
	P50US float64 `json:"p50_us"`
	P95US float64 `json:"p95_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`

	// BucketP99US re-estimates the client p99 through the server's
	// histogram bounds; ServerP99US is the server histogram delta over
	// the level's window. Comparing these two is like-for-like — both
	// carry the same bucketing error.
	BucketP99US float64 `json:"bucket_p99_us,omitempty"`
	ServerP99US float64 `json:"server_p99_us,omitempty"`
}

// LoadDoc is a full ftload sweep.
type LoadDoc struct {
	Schema   string `json:"schema"`
	Target   string `json:"target"`
	Endpoint string `json:"endpoint"`
	// Protocol records what the sweep spoke: "json" (per-pair HTTP) or
	// "binary" (batched RouteSet frames). Empty means json — documents
	// predate the field.
	Protocol string `json:"protocol,omitempty"`
	// Batch is the pairs-per-request batch size of a binary sweep.
	Batch int `json:"batch,omitempty"`
	Hosts int `json:"hosts,omitempty"`
	// RTTFloorUS is the median /healthz round trip; RTTFloorP99US the
	// bucketized p99 of the same probes — the transport tail a client
	// p99 carries that the server handler histogram does not.
	RTTFloorUS    float64     `json:"rtt_floor_us,omitempty"`
	RTTFloorP99US float64     `json:"rtt_floor_p99_us,omitempty"`
	Levels        []LoadLevel `json:"levels"`
}

package schema

// Event kinds recorded in the fabric journal. Inputs (what the manager
// was told) and lifecycle phases (what it did about them) share one
// stream, so a reader sees fault → reroute → validate → swap in order.
const (
	EvFault       = "fault"        // a link was failed
	EvRevive      = "revive"       // a link was revived
	EvFaultRandom = "fault_random" // a random fault draw
	EvAlloc       = "alloc"        // a job placement request
	EvFree        = "free"         // a job release
	EvReroute     = "reroute"      // tables + arena + HSD rebuilt
	EvValidate    = "validate"     // invariant check of the candidate
	EvSwap        = "swap"         // candidate became current
)

// Event outcomes.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
	// OutcomeSuperseded marks the reroute and validate records of a
	// snapshot that was built while its debounce window was open and
	// discarded, unpublished, by a later event of the burst; the records
	// of the rebuild that replaced it follow under the same epoch.
	OutcomeSuperseded = "superseded"
)

// Event is one entry of the fabric event journal: what happened, when
// (wall clock), under or producing which epoch, how long it took and
// how it ended. Detail is a short human-readable elaboration (link id,
// job size, broken-pair count, error text).
type Event struct {
	Seq        uint64 `json:"seq"`
	TimeUnixNS int64  `json:"time_unix_ns"`
	Kind       string `json:"kind"`
	Epoch      uint64 `json:"epoch"`
	// Engine names the routing engine involved: the engine that produced
	// the tables on reroute/validate/swap records, or the one a job
	// requested on alloc records. Empty when no engine was involved.
	Engine     string `json:"engine,omitempty"`
	DurationUS int64  `json:"duration_us,omitempty"`
	Outcome    string `json:"outcome,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// EventsDoc is the GET /v1/events response body.
type EventsDoc struct {
	Schema  string  `json:"schema"`
	Epoch   uint64  `json:"epoch"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

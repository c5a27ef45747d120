// Package schema owns every machine-readable document format of the
// repository: the fattree-*/vN stamps, and the Go types of each document
// that more than one package reads or writes. A producer (fmgr, netsim,
// bakeoff, cmd/ftload) fills these types and internal/report renders
// them, so a field added on one side is a compile-visible change on the
// other. Formats with a single knower keep their types at home and take
// only their stamp from here. The package imports nothing but the
// standard library, so any layer may depend on it.
package schema

// Stamps. Every stream or document the repository emits carries one, so
// a consumer can tell what it is parsing and fail loudly on the wrong
// kind instead of guessing. Bump /vN on a breaking change. This block
// is the schema table of docs/OBSERVABILITY.md.
const (
	// Probes stamps the -metrics JSONL stream (first record): probe
	// samples, one LinkRollup per simulation and the closing registry
	// snapshot.
	Probes = "fattree-probes/v1"
	// Trace stamps the -trace Chrome trace document (otherData.schema).
	Trace = "fattree-trace/v1"
	// Blame stamps contention blame reports (ftreport blame, fthsd -json).
	Blame = "fattree-blame/v1"
	// Table stamps experiment tables (ftbench -json).
	Table = "fattree-table/v1"
	// Check stamps invariant verdicts (ftcheck -json).
	Check = "fattree-check/v1"
	// Fabric stamps fabric documents (ftfabric -json, GET /v1/fabric).
	Fabric = "fattree-fabric/v1"
	// Route and Order stamp the daemon's GET /v1/route and /v1/order.
	Route = "fattree-route/v1"
	Order = "fattree-order/v1"
	// Events stamps the fabric event journal (EventsDoc).
	Events = "fattree-events/v1"
	// Load stamps ftload sweeps (LoadDoc).
	Load = "fattree-load/v1"
	// Bakeoff stamps ftbakeoff verdicts (BakeoffDoc).
	Bakeoff = "fattree-bakeoff/v1"
)

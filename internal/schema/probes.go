package schema

// RollupLinks is the LinkRollup.Rollup discriminator.
const RollupLinks = "links"

// LinkRollup is the record that closes each simulation in the
// fattree-probes/v1 stream: the per-directed-channel contention summary. A
// contention-free run shows MaxQueue ≤ 1 everywhere; a contended run
// names the hot channel by index (up = 2*link, down = 2*link+1).
type LinkRollup struct {
	Rollup     string    `json:"rollup"` // always RollupLinks
	DurationPS int64     `json:"duration_ps"`
	MaxQueue   []int32   `json:"max_queue"`
	BusyFrac   []float64 `json:"busy_frac"`
}

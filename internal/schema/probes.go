package schema

// RollupLinks is the LinkRollup.Rollup discriminator.
const RollupLinks = "links"

// LinkRollup is the end-of-run record of the fattree-linkprobe/v1
// stream: the per-directed-channel contention summary. A
// contention-free run shows MaxQueue ≤ 1 everywhere; a contended run
// names the hot channel by index (up = 2*link, down = 2*link+1).
type LinkRollup struct {
	Rollup     string    `json:"rollup"` // always RollupLinks
	DurationPS int64     `json:"duration_ps"`
	MaxQueue   []int32   `json:"max_queue"`
	BusyFrac   []float64 `json:"busy_frac"`
}

// ShardsRecord is the per-shard telemetry record a fattree-probes/v1
// stream carries after a sharded run.
type ShardsRecord struct {
	Shards []ShardStats `json:"shards"`
}

// ShardStats is one event loop's telemetry for a run — load balance
// and scheduler pressure, not simulation results.
type ShardStats struct {
	// Shard is the loop's index (always 0 for sequential runs).
	Shard int `json:"shard"`
	// Events counts regular events this loop executed: sharding-only
	// aux events excluded, eagerly elided deliveries included, so the
	// per-shard counts sum to the run's event total.
	Events uint64 `json:"events"`
	// MaxPending is this loop's regular-event queue high-water mark.
	MaxPending int `json:"max_pending"`
	// MailboxPeak is the largest batch of cross-shard events this shard
	// received at one window barrier (0 for sequential runs).
	MailboxPeak int `json:"mailbox_peak"`
	// BusyNS is wall-clock time spent executing events; StallNS
	// approximates wall-clock time spent idle at window barriers
	// waiting for slower shards (the coordinator's total window time
	// minus this shard's busy time).
	BusyNS  int64 `json:"busy_ns"`
	StallNS int64 `json:"stall_ns"`
	// Calendar-queue pressure (see internal/des): overflow-rebase
	// count, overflow-list high-water and occupied-slot high-water.
	CalRebases      uint64 `json:"cal_rebases"`
	CalOverflowPeak int    `json:"cal_overflow_peak"`
	CalSlotsPeak    int    `json:"cal_slots_peak"`
}

package hsd

import (
	"fattree/internal/cps"
	"fattree/internal/order"
)

// ClimbWidth is the width of a's climbing replay: 0 when stageRanks
// counts every stage in full.
func ClimbWidth(a *Analyzer) int { return a.climb }

// Climbs is stageRanks' climbing replay of one stage, which it takes
// (ok) only when the stage's shape is once.
func Climbs(a *Analyzer, st cps.Stage, o *order.Ordering) (res StageResult, ok bool) {
	sh := shapeOf(st, rankBits(o.Size()))
	if !sh.once {
		return res, false
	}
	return a.climbs(st, sh, o), true
}

// Rotation is stageRanks' climbing replay of the rotation by d over o's
// ranks, counted over two runs of the keys with no pair list.
func Rotation(a *Analyzer, d int, o *order.Ordering) StageResult {
	return a.climbs(nil, shape{flows: o.Size(), once: true, rot: d}, o)
}

// Replay is stageRanks' full count of one stage.
func Replay(a *Analyzer, st cps.Stage, o *order.Ordering) StageResult { return a.replay(st, o) }

// Exchange is stageRanks' climbing replay of the exchange at distance m
// over o's first span ranks, counted with no pair list.
func Exchange(a *Analyzer, m, span int, o *order.Ordering) StageResult {
	return a.climbs(nil, shape{flows: span, once: true, xor: m}, o)
}

// ClimbLoads runs the climbing replay's count over st under o, whatever
// st's shape, and returns its result with the up counters it leaves, one
// per link by LinkID.
func ClimbLoads(a *Analyzer, st cps.Stage, o *order.Ordering) (StageResult, []uint16) {
	res := a.climbs(st, shape{flows: len(st), once: true}, o)
	return res, append([]uint16(nil), a.up[1:]...)
}

// ClimbCounted is climbWidth's bound on the end-ports whose loads the
// climbing replay's counters hold.
func ClimbCounted(hosts int) bool { return climbCounted(hosts) }

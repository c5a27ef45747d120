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

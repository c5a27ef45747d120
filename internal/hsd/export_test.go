package hsd

import (
	"fattree/internal/cps"
	"fattree/internal/order"
)

// ClimbWidth is the width of a's climbing replay: 0 when stageRanks
// counts every stage in full.
func ClimbWidth(a *Analyzer) int { return a.climb }

// Climbs is stageRanks' climbing replay of one stage.
func Climbs(a *Analyzer, st cps.Stage, o *order.Ordering) (StageResult, bool) {
	return a.climbs(st, o)
}

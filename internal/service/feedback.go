package service

// The feedback loop's service arm: per-query cardinality recording.
//
// Every traced query folds its estimated-vs-observed output cardinality
// into the feedback registry; PlanQuery scales the next plan's
// output-rows estimate by the learned factor. The planner's input counts
// are exact and nothing corrects them.

import (
	"ejoin/internal/cost"
	"ejoin/internal/feedback"
	"ejoin/internal/plan"
)

// recordFeedback folds one executed query's output cardinality (static
// and corrected estimates against observed matches) into the feedback
// registry.
func (e *Engine) recordFeedback(q *plan.Query, optimized *plan.EJoin, res *plan.ExecResult) {
	if q.Left.Table.NumRows() == 0 || q.Right.Table.NumRows() == 0 {
		return
	}
	e.feedback.RecordJoin(q.Left.Name, q.Right.Name,
		optimized.StaticRows, optimized.EstRows, int64(len(res.Matches)))
}

// FeedbackDump is the /debug/feedback payload: the whole registry.
func (e *Engine) FeedbackDump() feedback.Dump { return e.feedback.Dump() }

// CostStats surfaces the planner's effective cost-model coefficients
// (normalized to Access=1) and whether they came from machine
// calibration (Config.CalibrateCost) or defaults/config.
type CostStats struct {
	Calibrated bool    `json:"calibrated"`
	Access     float64 `json:"access"`
	Compare    float64 `json:"compare"`
	Model      float64 `json:"model"`
}

func (e *Engine) costStats() CostStats {
	return CostStats{
		Calibrated: e.calibrated,
		Access:     e.cfg.CostParams.Access,
		Compare:    e.cfg.CostParams.Compare,
		Model:      e.cfg.CostParams.Model,
	}
}

// CostParams is the planner's effective parameter set (after validation
// and optional calibration) — logged at server boot.
func (e *Engine) CostParams() cost.Params { return e.cfg.CostParams }

// Calibrated reports whether CostParams came from cost.Calibrate.
func (e *Engine) Calibrated() bool { return e.calibrated }

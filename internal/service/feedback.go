package service

// The feedback loop's service arm: per-query cardinality recording and
// the strategy-regret counter.
//
// Every traced query folds its estimated-vs-observed output cardinality
// into the feedback registry (PlanQuery scales the next plan's
// output-rows estimate by the learned factor; the planner's input counts
// are exact and nothing corrects them) and scores the planner's strategy
// choice against a post-hoc recomputation with the exact input counts
// and a warm store (the regret counter).

import (
	"ejoin/internal/cost"
	"ejoin/internal/feedback"
	"ejoin/internal/plan"
)

// recordFeedback folds one executed query into the feedback registry:
// output cardinality (static and corrected estimates against observed
// matches) and the post-hoc strategy regret.
func (e *Engine) recordFeedback(q *plan.Query, optimized *plan.EJoin, res *plan.ExecResult) {
	baseL, baseR := q.Left.Table.NumRows(), q.Right.Table.NumRows()
	if baseL == 0 || baseR == 0 {
		return
	}
	e.feedback.RecordJoin(q.Left.Name, q.Right.Name,
		optimized.StaticRows, optimized.EstRows, int64(len(res.Matches)))

	// Regret: re-run access path selection with the exact input counts
	// this query filtered to and a warm cache, which post-execution is the
	// truth; a different winner means the plan left time on the table.
	k := 0
	if optimized.Spec.Kind == plan.TopKJoin {
		k = optimized.Spec.K
	}
	hasIdx := q.Right.Index != nil
	selL := float64(len(res.LeftRows)) / float64(baseL)
	selR := float64(len(res.RightRows)) / float64(baseR)
	choice := e.cfg.CostParams.ChooseJoinStrategyWarm(baseL, baseR, selL, selR, k, hasIdx, 1, 1)
	want := choice.Strategy
	if want == cost.StrategyIndex && !hasIdx {
		want = cost.StrategyTensor
	}
	if want != optimized.Strategy {
		e.feedback.RecordRegret(q.Left.Name, q.Right.Name)
	}
}

// FeedbackDump is the /debug/feedback payload: the whole registry.
func (e *Engine) FeedbackDump() feedback.Dump { return e.feedback.Dump() }

// FeedbackStats is the feedback loop's slice of ServerStats.
type FeedbackStats struct {
	// Regret counts queries whose post-hoc costs favored a different
	// strategy.
	Regret int64 `json:"regret"`
}

func (e *Engine) feedbackStats() FeedbackStats {
	return FeedbackStats{Regret: e.feedback.Regret()}
}

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

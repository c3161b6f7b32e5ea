package main

import (
	"errors"
	"fmt"

	contextrank "repro"
	"repro/internal/experiments"
	"repro/internal/situation"
	"repro/internal/workload"
)

// checkE1 reproduces the paper's Table 1 through the library; the scores
// must match the published ones to within 1e-12.
func checkE1() error {
	res, err := experiments.RunE1()
	if err != nil {
		return fmt.Errorf("E1: %w", err)
	}
	if e := res.MaxError(); e > 1e-12 {
		return fmt.Errorf("E1: max |paper - measured| = %g > 1e-12", e)
	}
	fmt.Printf("check: E1 (Table 1) max error %.3g\n", res.MaxError())
	return nil
}

// reference is an independent System over the same preload, holding only
// the context of the user being checked.
type reference struct {
	sys *contextrank.System
}

func newReference(rules int) (*reference, error) {
	sys, err := paperSystem(rules)
	if err != nil {
		return nil, fmt.Errorf("building reference system: %w", err)
	}
	return &reference{sys: sys}, nil
}

// paperSystem is a System preloaded the way `carserved -preload paper
// -rules R` preloads each shard.
func paperSystem(rules int) (*contextrank.System, error) {
	sys := contextrank.NewSystem()
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.DefaultSpec(), rules); err != nil {
		return nil, err
	}
	return sys, nil
}

// rank ranks target (or the candidate list) for user under ctx alone,
// through a freshly compiled plan like the daemon's default algorithm.
func (r *reference) rank(user string, ctx []measurement, target string, cands []string, topK int) ([]result, error) {
	c := contextrank.NewContext(user)
	for _, m := range ctx {
		c.Measurements = append(c.Measurements, situation.Measurement{Concept: m.Concept, Prob: m.Prob})
	}
	if err := r.sys.SetContext(c); err != nil {
		return nil, fmt.Errorf("reference context: %w", err)
	}
	opts := contextrank.RankOptions{TopK: topK}
	var res []contextrank.Result
	plan, err := r.sys.CompileRankPlan(user)
	switch {
	case errors.Is(err, contextrank.ErrPlanClusterBound) && cands != nil:
		res, err = r.sys.RankCandidatesNoPlan(user, cands, opts)
	case errors.Is(err, contextrank.ErrPlanClusterBound):
		res, err = r.sys.RankNoPlan(user, target, opts)
	case err != nil:
	case cands != nil:
		res, err = r.sys.RankCandidatesWithPlan(plan, cands, opts)
	default:
		res, err = r.sys.RankWithPlan(plan, target, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("reference rank: %w", err)
	}
	out := make([]result, len(res))
	for i, x := range res {
		out[i] = result{ID: x.ID, Score: x.Score}
	}
	return out, nil
}

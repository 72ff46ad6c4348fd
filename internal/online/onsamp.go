package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// ONSAMP is the sampling speed-up of ONCONF sketched in Section III-A:
// instead of tracking a counter for every configuration, "only k
// configurations are tracked, one for each possible number of current
// servers". Concretely, when an epoch ends (the accumulated cost reaches
// θ = 2c, as in ONBR), ONSAMP computes for each server count i ∈ {1..k}
// the greedy placement of i servers against the epoch's demand — the same
// greedy OFFSTAT uses, so the i-server sample is the natural representative
// of all i-server configurations — and switches to the cheapest sample,
// accounting for reconfiguration, access and running cost.
//
// Compared to ONBR, ONSAMP can jump to a completely different placement in
// one epoch (it is not limited to single-change moves), at the price of
// considering only k candidate configurations.
type ONSAMP struct {
	base
	// MaxSample bounds the sampled server counts; zero uses the
	// environment's server bound k (or √n when unbounded, to keep the
	// greedy affordable).
	MaxSample int
	// ThetaFactor scales the epoch threshold θ = ThetaFactor·c (default 2).
	ThetaFactor float64

	theta float64
	epoch epoch
}

// NewONSAMP returns the sampling strategy with default parameters.
func NewONSAMP() *ONSAMP { return &ONSAMP{} }

// Name implements sim.Algorithm.
func (a *ONSAMP) Name() string { return "ONSAMP" }

func (a *ONSAMP) factor() float64 { return paperFactor(a.ThetaFactor) }

func (a *ONSAMP) maxSample() int {
	if a.MaxSample > 0 {
		return a.MaxSample
	}
	if k := a.env.Pool.MaxServers; k > 0 {
		return k
	}
	// Unbounded k: sample up to √n server counts so one epoch end stays
	// O(n·√n·|σ|).
	n := a.env.Graph.N()
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Reset implements sim.Algorithm.
func (a *ONSAMP) Reset(env *sim.Env) error {
	if len(env.Start) == 0 {
		return fmt.Errorf("onsamp: empty initial placement")
	}
	a.reset(env, a.state)
	a.theta = a.factor() * env.Costs.Create
	a.epoch = newEpoch(env.Graph.N())
	return nil
}

// Observe implements sim.Algorithm.
func (a *ONSAMP) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	a.epoch.observe(d, access.Total()+a.pool.RunCost())
	if a.epoch.accum < a.theta {
		return core.Delta{}
	}
	length := a.epoch.rounds(t)
	agg := a.epoch.agg.Demand()
	target := a.bestSample(agg, length)
	delta := a.apply(target)
	a.pool.AdvanceEpoch()
	a.epoch.restart(t + 1)
	return delta
}

// bestSample greedily grows placements of 1..k servers against the epoch
// aggregate and returns the cheapest, scored like BestResponse (current
// placement included as the do-nothing candidate).
func (a *ONSAMP) bestSample(agg cost.Demand, rounds int) core.Placement {
	cur := a.pool.Active()
	sc := EpochScorer(a.env, cur, agg, rounds)
	best := cur
	bestScore := sc.Base() + float64(rounds)*a.env.Costs.Run(cur.Len(), a.pool.NumInactive())
	sc.Release()

	var sample core.Placement
	for i := 1; i <= a.maxSample(); i++ {
		v, ac, ok := a.env.Eval.BestAddition(sample, agg)
		if !ok {
			break
		}
		sample = sample.With(v)
		score := ac.Total() +
			a.pool.PredictSwitch(sample).Total() +
			float64(rounds)*a.env.Costs.Run(sample.Len(), a.pool.PredictInactiveAfter(sample))
		if score < bestScore {
			best, bestScore = sample.Clone(), score
		}
	}
	return best
}

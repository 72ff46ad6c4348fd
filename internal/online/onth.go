package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// ONTH is the threshold algorithm of Section III-A. It divides time into
// small and large epochs:
//
//   - A small epoch ends when the cost accumulated in the current
//     configuration reaches y·β (the paper uses y = 2). The algorithm then
//     switches to the cheapest configuration — w.r.t. the passed epoch and
//     including access, migration and running cost — among keeping the
//     configuration, migrating one server, or deactivating one server.
//   - A large epoch ends when the accumulated access cost outweighs the
//     accumulated running cost of the active servers, concretely when
//     Costacc/(kcur+1) − Costrun > c. A new server is then activated at the
//     position that is optimal with respect to the access cost of the
//     latest large epoch.
//
// Unlike ONBR, ONTH needs no externally tuned threshold θ: the decision to
// add servers is automated by the large-epoch rule. Under constant demand
// it converges to a stable configuration.
type ONTH struct {
	base
	// Y is the small-epoch factor (threshold y·β). Zero selects the
	// paper's y = 2.
	Y float64

	// small accumulates access plus running cost; large accumulates
	// access cost only, with the running cost beside it in largeRun.
	small, large epoch
	largeRun     float64
}

// NewONTH returns ONTH with the paper's parameters.
func NewONTH() *ONTH { return &ONTH{} }

// Name implements sim.Algorithm.
func (a *ONTH) Name() string { return "ONTH" }

func (a *ONTH) y() float64 { return paperFactor(a.Y) }

// Reset implements sim.Algorithm.
func (a *ONTH) Reset(env *sim.Env) error {
	if len(env.Start) == 0 {
		return fmt.Errorf("onth: empty initial placement")
	}
	a.reset(env, a.state)
	a.small, a.large = newEpoch(env.Graph.N()), newEpoch(env.Graph.N())
	a.largeRun = 0
	return nil
}

// Observe implements sim.Algorithm.
func (a *ONTH) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	run := a.pool.RunCost()
	a.small.observe(d, access.Total()+run)
	a.large.observe(d, access.Total())
	a.largeRun += run

	var delta core.Delta
	if a.largeEpochOver() {
		delta = delta.Add(a.endLargeEpoch(t))
	}
	if a.small.accum >= a.y()*a.env.Costs.Beta {
		delta = delta.Add(a.endSmallEpoch(t))
	}
	return delta
}

// largeEpochOver evaluates the paper's condition
// Costacc/(kcur+1) − Costrun > c.
func (a *ONTH) largeEpochOver() bool {
	kcur := float64(a.pool.NumActive())
	return a.large.accum/(kcur+1)-a.largeRun > a.env.Costs.Create
}

// endLargeEpoch activates one more server at the position optimal for the
// access cost of the epoch that just ended.
func (a *ONTH) endLargeEpoch(t int) core.Delta {
	var delta core.Delta
	cur := a.pool.Active()
	if a.env.Pool.MaxServers <= 0 || cur.Len() < a.env.Pool.MaxServers {
		agg := a.large.agg.Demand()
		if v, _, ok := a.env.Eval.BestAddition(cur, agg); ok {
			delta = a.apply(cur.With(v))
		}
	}
	a.large.restart(t + 1)
	a.largeRun = 0
	// The configuration changed; restart the small epoch so its best
	// response judges the new configuration on fresh observations.
	a.small.restart(t + 1)
	return delta
}

// endSmallEpoch runs the restricted best response (no additions — growing
// the configuration is the large epoch's job).
func (a *ONTH) endSmallEpoch(t int) core.Delta {
	length := a.small.rounds(t)
	agg := a.small.agg.Demand()
	target := a.bestResponse(agg, length, SearchMoves{Move: true, Deactivate: true})
	delta := a.apply(target)
	a.pool.AdvanceEpoch()
	a.small.restart(t + 1)
	return delta
}

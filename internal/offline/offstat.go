package offline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/workload"
)

// OFFSTAT is the static offline reference of Section V: for a given request
// sequence σ it determines the optimal number of servers kopt by computing,
// for each i ∈ {1, ..., k}, the cost of the greedy static configuration
// with i servers — one server after the other placed at the location that
// yields the lowest cost for σ given the servers already placed — and
// picking the i of minimal total cost. The chosen configuration is
// installed before round 0 and never changes, so OFFSTAT quantifies what a
// system without dynamic allocation and migration would pay.
type OFFSTAT struct {
	seq *workload.Sequence

	env       *sim.Env
	placement core.Placement
	curve     []float64 // total cost of the greedy prefix with i+1 servers
	kopt      int
	installed bool
}

// NewOFFSTAT returns the static strategy for the given sequence.
func NewOFFSTAT(seq *workload.Sequence) *OFFSTAT { return &OFFSTAT{seq: seq} }

// Name implements sim.Algorithm.
func (o *OFFSTAT) Name() string { return "OFFSTAT" }

// Kopt returns the chosen number of servers (after Reset).
func (o *OFFSTAT) Kopt() int { return o.kopt }

// CostCurve returns, for each server count i = 1..k, the total cost of the
// greedy static configuration with i servers over the whole sequence. This
// is the curve of Figure 12, whose minimum defines kopt.
func (o *OFFSTAT) CostCurve() []float64 { return o.curve }

// totalFor evaluates the full-horizon cost of a static placement: creation
// of the servers (reconfiguring from the shared initial configuration γ0),
// running cost and access cost for every round.
func (o *OFFSTAT) totalFor(p core.Placement) float64 {
	entering, leaving := o.env.Start.Diff(p)
	total := o.env.Costs.Transition(len(entering), len(leaving))
	run := o.env.Costs.Run(p.Len(), 0)
	sep := o.env.Eval.Separable()
	if sep {
		agg := o.seq.Aggregate(0, o.seq.Len())
		ac := o.env.Eval.Access(p, agg)
		// The latency term aggregates exactly; the load term must account
		// for idle rounds, but for separable loads with zero idle value
		// the aggregate equals the per-round sum.
		total += ac.Total() + float64(o.seq.Len())*run
		return total
	}
	for t := 0; t < o.seq.Len(); t++ {
		total += o.env.Eval.Access(p, o.seq.Demand(t)).Total() + run
	}
	return total
}

// Reset implements sim.Algorithm: it computes the greedy placement curve
// and selects kopt.
func (o *OFFSTAT) Reset(env *sim.Env) error {
	o.env = env
	o.installed = false
	k := env.Pool.MaxServers
	if k <= 0 || k > env.Graph.N() {
		k = env.Graph.N()
	}
	if k == 0 {
		return fmt.Errorf("offstat: empty network")
	}
	agg := o.seq.Aggregate(0, o.seq.Len())

	o.curve = o.curve[:0]
	var cur core.Placement
	best := core.Placement(nil)
	bestCost := math.Inf(1)
	// The greedy curve adds one server at a time against the same
	// aggregated demand, so a single scorer is maintained incrementally
	// (ApplyAdd) across iterations; only non-separable loads fall back to
	// one BestAddition evaluation per server count.
	var sc *cost.Scorer
	occ := make([]bool, env.Graph.N())
	for i := 1; i <= k; i++ {
		var v int
		var ok bool
		if sc != nil {
			v, ok = sc.BestAdd(occ)
		} else {
			v, _, ok = env.Eval.BestAddition(cur, agg)
		}
		if !ok {
			break
		}
		cur = cur.With(v)
		occ[v] = true
		if sc == nil {
			sc, _ = cost.NewScorer(env.Eval, cur, agg) // nil for non-separable loads
		} else {
			sc.ApplyAdd(v)
		}
		total := o.totalFor(cur)
		o.curve = append(o.curve, total)
		if total < bestCost {
			best, bestCost = cur.Clone(), total
		}
	}
	if sc != nil {
		sc.Release()
	}
	if best.Len() == 0 {
		return fmt.Errorf("offstat: could not place any server")
	}
	o.placement = best
	o.kopt = best.Len()
	return nil
}

// Prepare implements sim.Algorithm: the static configuration is installed
// before the first round and then kept forever.
func (o *OFFSTAT) Prepare(t int) core.Delta {
	if o.installed || t != 0 {
		return core.Delta{}
	}
	o.installed = true
	entering, leaving := o.env.Start.DiffSize(o.placement)
	return core.NewDelta(o.env.Costs, entering, leaving)
}

// Placement implements sim.Algorithm.
func (o *OFFSTAT) Placement() core.Placement {
	if !o.installed {
		return o.env.Start.Clone()
	}
	return o.placement.Clone()
}

// Inactive implements sim.Algorithm: OFFSTAT never caches servers.
func (o *OFFSTAT) Inactive() int { return 0 }

// Observe implements sim.Algorithm: OFFSTAT never reacts.
func (o *OFFSTAT) Observe(int, cost.Demand, cost.AccessCost) core.Delta { return core.Delta{} }

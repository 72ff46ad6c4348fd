package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/graph/gen"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablations probe the design choices that the paper fixes by fiat (queue
// size 3, expiry x = 20, small-epoch factor y = 2, threshold θ = 2c,
// min-cost routing). Each returns a table of ONTH/ONBR total cost as the
// knob varies on a common commuter-dynamic instance.

// ablationInstance builds the shared environment/workload of the ablation
// studies, parameterised by the pool and evaluator knobs under study.
func ablationInstance(o Options, pool core.Params, load cost.LoadFunc, policy cost.Policy, seed int64) (*sim.Env, *workload.Sequence, error) {
	n := pick(o, 150, 60)
	rounds := pick(o, 400, 120)
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.ErdosRenyi(n, ErdosRenyiP, gen.DefaultOptions(), rng)
	if err != nil {
		return nil, nil, err
	}
	env, err := newMetricEnv(g, load, policy, cost.DefaultParams(), pool, o.Metric)
	if err != nil {
		return nil, nil, err
	}
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: workload.TForSize(n), Lambda: 10}, rounds)
	if err != nil {
		return nil, nil, err
	}
	return env, seq, nil
}

// ablateSpec is the grid every ablation shares: one cell per (knob value,
// run) playing the configured algorithm on the common instance, reduced to
// a single mean-cost series over the knob axis.
func ablateSpec(o Options, name, title, xlabel string, xs []float64,
	makeAlg func(xi int) sim.Algorithm,
	configure func(xi int, pool *core.Params) (cost.LoadFunc, cost.Policy)) *runner.Spec {

	runs := pick(o, 5, 2)
	seed := o.seed()
	return &runner.Spec{
		Name: name,
		Xs:   len(xs), Variants: 1, Runs: runs, Width: 1,
		Cell: func(xi, _, run int) ([]float64, error) {
			pool := poolDefaults()
			load, policy := configure(xi, &pool)
			env, seq, err := ablationInstance(o, pool, load, policy, runSeed(seed, xi, run))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, makeAlg(xi), seq))
		},
		Reduce: meanSeriesReduce(title, xlabel, "total cost", xs, []string{"total cost"}),
	}
}

// defaultConfigure keeps the paper's pool, load, and routing choices.
func defaultConfigure(int, *core.Params) (cost.LoadFunc, cost.Policy) {
	return cost.Linear{}, cost.AssignMinCost
}

// ablationQueueSpec varies the inactive-cache capacity (the paper fixes 3).
func ablationQueueSpec(o Options) *runner.Spec {
	xs := []float64{0, 1, 3, 8}
	return ablateSpec(o, "ablation-queue", "Ablation: ONTH vs inactive-queue capacity", "queue capacity", xs,
		func(int) sim.Algorithm { return online.NewONTH() },
		func(xi int, pool *core.Params) (cost.LoadFunc, cost.Policy) {
			pool.QueueCap = int(xs[xi])
			return cost.Linear{}, cost.AssignMinCost
		})
}

// ablationExpirySpec varies the inactive-server expiry x (the paper fixes 20).
func ablationExpirySpec(o Options) *runner.Spec {
	xs := []float64{1, 5, 20, 100}
	return ablateSpec(o, "ablation-expiry", "Ablation: ONTH vs inactive-server expiry", "expiry (epochs)", xs,
		func(int) sim.Algorithm { return online.NewONTH() },
		func(xi int, pool *core.Params) (cost.LoadFunc, cost.Policy) {
			pool.Expiry = int(xs[xi])
			return cost.Linear{}, cost.AssignMinCost
		})
}

// ablationYSpec varies ONTH's small-epoch factor y (threshold y·β; paper: 2).
func ablationYSpec(o Options) *runner.Spec {
	ys := []float64{1, 2, 4, 8}
	return ablateSpec(o, "ablation-y", "Ablation: ONTH vs small-epoch factor y", "y", ys,
		func(xi int) sim.Algorithm {
			alg := online.NewONTH()
			alg.Y = ys[xi]
			return alg
		},
		defaultConfigure)
}

// ablationThetaSpec varies ONBR's threshold factor (θ = factor·c; paper: 2).
func ablationThetaSpec(o Options) *runner.Spec {
	factors := []float64{0.5, 1, 2, 4, 8}
	return ablateSpec(o, "ablation-theta", "Ablation: ONBR vs threshold factor", "theta/c", factors,
		func(xi int) sim.Algorithm {
			alg := online.NewONBR()
			alg.ThetaFactor = factors[xi]
			return alg
		},
		defaultConfigure)
}

// ablationLoadSpec compares load models under ONTH: linear, power(1.5),
// quadratic.
func ablationLoadSpec(o Options) *runner.Spec {
	loads := []cost.LoadFunc{cost.Linear{}, cost.Power{P: 1.5}, cost.Quadratic{}}
	return ablateSpec(o, "ablation-load", "Ablation: ONTH vs load function", "load exponent",
		[]float64{1, 1.5, 2},
		func(int) sim.Algorithm { return online.NewONTH() },
		func(xi int, _ *core.Params) (cost.LoadFunc, cost.Policy) {
			return loads[xi], cost.AssignMinCost
		})
}

// ablationAssignSpec compares the min-cost request routing of Section II-B
// against load-oblivious nearest-server routing, under quadratic load where
// the difference matters.
func ablationAssignSpec(o Options) *runner.Spec {
	policies := []cost.Policy{cost.AssignMinCost, cost.AssignNearest}
	return ablateSpec(o, "ablation-assign", "Ablation: routing policy under quadratic load (ONTH)",
		"policy (0=min-cost,1=nearest)", []float64{0, 1},
		func(int) sim.Algorithm { return online.NewONTH() },
		func(xi int, _ *core.Params) (cost.LoadFunc, cost.Policy) {
			return cost.Quadratic{}, policies[xi]
		})
}

package experiments

import (
	"math/rand"

	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figureSizeSpec is the shared grid of Figures 3–5: total cost of the online
// strategies as a function of network size (runtime 500 rounds, λ = 10,
// averaged over 5 runs, T growing with network size). The paper does not
// list the swept sizes; the commuter sweeps go up to 1000 nodes, while the
// time-zone sweep stops at 500 because its background demand touches nearly
// every node, which makes each best-response scan cost Θ(k·n²) instead of
// Θ(k·n·2^(T/2)).
func figureSizeSpec(o Options, name, title string, kind scenarioKind) *runner.Spec {
	full := []int{100, 200, 300, 400, 500, 700, 1000}
	if kind == timeZones {
		full = []int{100, 200, 300, 400, 500}
	}
	sizes := pickSizes(o, full, []int{50, 100, 150})
	rounds := pick(o, 500, 150)
	runs := pick(o, 5, 2)
	lambda := 10
	seed := o.seed()

	labels := []string{"ONBR-fixed", "ONBR-dyn", "ONTH"}
	return &runner.Spec{
		Name: name,
		Xs:   len(sizes), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			n := sizes[xi]
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := buildScenario(kind, env.Metric, workload.TForSize(n), lambda, rounds, 0,
				rand.New(rand.NewSource(s+1)))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, onlineContenders()[ai], seq))
		},
		Reduce: meanSeriesReduce(title, "network size", "total cost", floats(sizes), labels),
	}
}

// figure3Spec reproduces Figure 3: cost of ONBR-fixed, ONBR-dyn and ONTH in the
// commuter scenario with dynamic load as a function of network size. ONTH
// has the lowest cost throughout, though its cost grows slightly faster
// with the node count.
func figure3Spec(o Options) *runner.Spec {
	return figureSizeSpec(o, "3", "Figure 3: cost vs network size, commuter dynamic load", commuterDynamic)
}

// figure4Spec reproduces Figure 4: like Figure 3, but for the commuter scenario
// with static load.
func figure4Spec(o Options) *runner.Spec {
	return figureSizeSpec(o, "4", "Figure 4: cost vs network size, commuter static load", commuterStatic)
}

// figure5Spec reproduces Figure 5: like Figure 3, but for the time-zone
// scenario (p = 50%).
func figure5Spec(o Options) *runner.Spec {
	return figureSizeSpec(o, "5", "Figure 5: cost vs network size, time zones", timeZones)
}

// figure6Spec is the grid of Figure 6: the breakdown of the costs incurred
// by ONBR in a scenario with β = 400 > c = 40 as a function of network size
// (runtime 500 rounds, λ = 10, 5 runs). Each cell is one run returning the
// four cost categories.
// With β > c the three online algorithms coincide and the paper considers
// ONBR with fixed threshold 2c; migration never happens, so the
// reconfiguration budget is pure creation.
func figure6Spec(o Options) *runner.Spec {
	sizes := pickSizes(o, []int{100, 200, 300, 400, 500, 700, 1000}, []int{50, 100, 150})
	rounds := pick(o, 500, 150)
	runs := pick(o, 5, 2)
	lambda := 10
	seed := o.seed()

	components := []string{"access", "running", "migration", "creation"}
	return &runner.Spec{
		Name: "6",
		Xs:   len(sizes), Variants: 1, Runs: runs, Width: 4,
		Cell: func(xi, _, run int) ([]float64, error) {
			n := sizes[xi]
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.InvertedParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := workload.CommuterDynamic(env.Metric,
				workload.CommuterConfig{T: workload.TForSize(n), Lambda: lambda}, rounds)
			if err != nil {
				return nil, err
			}
			l, err := sim.Run(env, online.NewONBR(), seq)
			if err != nil {
				return nil, err
			}
			return []float64{l.Totals.Access(), l.Totals.Run, l.Totals.Migration, l.Totals.Creation}, nil
		},
		Reduce: func(g *runner.Grid) (*trace.Table, error) {
			tab := &trace.Table{
				Title:  "Figure 6: ONBR cost breakdown, commuter dynamic load, β=400 c=40",
				XLabel: "network size",
				YLabel: "cost per category",
				X:      floats(sizes),
			}
			for ci, label := range components {
				vals := make([]float64, len(sizes))
				for xi := range sizes {
					vals[xi] = stats.Mean(g.RunsAt(xi, 0, ci))
				}
				tab.Series = append(tab.Series, trace.Series{Label: label, Values: vals})
			}
			return tab, tab.Validate()
		},
	}
}

// figure7Spec is the grid of Figure 7: cost as a function of T for the
// three online strategies in a commuter scenario with static load (runtime
// 600 rounds, λ = 20, network size 1000, averaged over 10 runs).
// Cost rises slightly with T because a larger T widens the request
// horizon.
func figure7Spec(o Options) *runner.Spec {
	n := pick(o, 1000, 100)
	rounds := pick(o, 600, 150)
	runs := pick(o, 10, 2)
	Ts := pickSizes(o, []int{4, 6, 8, 10, 12, 14, 16}, []int{4, 6, 8})
	lambda := 20
	seed := o.seed()

	labels := []string{"ONBR-fixed", "ONBR-dyn", "ONTH"}
	return &runner.Spec{
		Name: "7",
		Xs:   len(Ts), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := workload.CommuterStatic(env.Metric,
				workload.CommuterConfig{T: Ts[xi], Lambda: lambda}, rounds)
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, onlineContenders()[ai], seq))
		},
		Reduce: meanSeriesReduce("Figure 7: cost vs T, commuter static load", "T", "total cost",
			floats(Ts), labels),
	}
}

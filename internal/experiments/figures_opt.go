package experiments

import (
	"math/rand"

	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// optInstance builds one small-instance run: the paper evaluates everything
// involving OPT on line graphs of five nodes.
func optInstance(kind scenarioKind, params cost.Params, n, T, lambda, rounds, reqPerRound int, seed int64, metric string) (*sim.Env, *workload.Sequence, error) {
	env, err := lineEnv(n, params, seed, metric)
	if err != nil {
		return nil, nil, err
	}
	seq, err := buildScenario(kind, env.Metric, T, lambda, rounds, reqPerRound, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, nil, err
	}
	return env, seq, nil
}

// optParamSets are the two cost parameterisations the OFFSTAT/OPT ratio
// figures compare.
func optParamSets() []struct {
	label  string
	params cost.Params
} {
	return []struct {
		label  string
		params cost.Params
	}{
		{"β<c", cost.DefaultParams()},
		{"β>c", cost.InvertedParams()},
	}
}

// figure11Spec is the grid of Figure 11: the competitive ratio of ONTH (its
// cost divided by OPT's cost on the same sequence) as a function of λ, on
// five-node networks over 200 rounds, averaged over 10 runs, for all three
// scenarios.
// Ratios stay fairly low everywhere; the static-load commuter scenario
// peaks at intermediate λ.
func figure11Spec(o Options) *runner.Spec {
	n := 5
	rounds := pick(o, 200, 60)
	runs := pick(o, 10, 2)
	lambdas := pickSizes(o, []int{1, 2, 5, 10, 20, 50}, []int{2, 10})
	T := 4
	seed := o.seed()

	kinds := []scenarioKind{commuterDynamic, commuterStatic, timeZones}
	labels := make([]string, len(kinds))
	for ki, kind := range kinds {
		labels[ki] = kind.String()
	}
	return &runner.Spec{
		Name: "11",
		Xs:   len(lambdas), Variants: len(kinds), Runs: runs, Width: 1,
		Cell: func(xi, ki, run int) ([]float64, error) {
			s := runSeed(seed, xi*len(kinds)+ki, run)
			env, seq, err := optInstance(kinds[ki], cost.DefaultParams(), n, T, lambdas[xi], rounds, 3, s, o.Metric)
			if err != nil {
				return nil, err
			}
			onth, err := runTotal(env, online.NewONTH(), seq)
			if err != nil {
				return nil, err
			}
			opt, err := runTotal(env, offline.NewOPT(seq), seq)
			if err != nil {
				return nil, err
			}
			return []float64{stats.Ratio(onth, opt)}, nil
		},
		Reduce: meanSeriesReduce("Figure 11: competitive ratio ONTH/OPT vs lambda (n=5)",
			"lambda", "cost(ONTH) / cost(OPT)", floats(lambdas), labels),
	}
}

// figure12Spec is the grid of Figure 12: a single deterministic cell whose
// values are OFFSTAT's whole cost curve over the server count.
// The curve shows how OFFSTAT determines the best number of servers — the
// total cost of the greedy static configuration as a function of the
// server count i, whose minimum defines kopt.
func figure12Spec(o Options) *runner.Spec {
	n := pick(o, 100, 40)
	rounds := pick(o, 300, 100)
	maxK := pick(o, 10, 6)
	seed := o.seed()

	return &runner.Spec{
		Name: "12",
		Xs:   1, Variants: 1, Runs: 1, Width: maxK,
		Cell: func(_, _, _ int) ([]float64, error) {
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), seed, o.Metric)
			if err != nil {
				return nil, err
			}
			// Bound the curve length without constraining the other
			// algorithms.
			env.Pool.MaxServers = maxK
			seq, err := workload.CommuterDynamic(env.Metric,
				workload.CommuterConfig{T: workload.TForSize(n), Lambda: 10}, rounds)
			if err != nil {
				return nil, err
			}
			off := offline.NewOFFSTAT(seq)
			if err := off.Reset(env); err != nil {
				return nil, err
			}
			return off.CostCurve(), nil
		},
		Reduce: func(g *runner.Grid) (*trace.Table, error) {
			curve := g.Cell(0, 0, 0)
			tab := &trace.Table{
				Title:  "Figure 12: OFFSTAT total cost vs number of static servers",
				XLabel: "servers",
				YLabel: "total cost",
			}
			for i := range curve {
				tab.X = append(tab.X, float64(i+1))
			}
			tab.Series = []trace.Series{{Label: "OFFSTAT", Values: curve}}
			return tab, tab.Validate()
		},
	}
}

// figureAbsoluteSpec is the shared grid of Figures 13 and 14: the absolute
// total costs of OFFSTAT and OPT in the dynamic-load commuter scenario as a
// function of λ (200 rounds, five nodes, T = 4, 10 runs). One cell per
// (λ, run), returning both algorithms' totals on the shared instance.
func figureAbsoluteSpec(o Options, name, title string, params cost.Params) *runner.Spec {
	n := 5
	rounds := pick(o, 200, 60)
	runs := pick(o, 10, 2)
	lambdas := pickSizes(o, []int{1, 2, 5, 10, 20, 50}, []int{2, 10})
	T := 4
	seed := o.seed()

	return &runner.Spec{
		Name: name,
		Xs:   len(lambdas), Variants: 1, Runs: runs, Width: 2,
		Cell: func(xi, _, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, seq, err := optInstance(commuterDynamic, params, n, T, lambdas[xi], rounds, 0, s, o.Metric)
			if err != nil {
				return nil, err
			}
			off, err := runTotal(env, offline.NewOFFSTAT(seq), seq)
			if err != nil {
				return nil, err
			}
			opt, err := runTotal(env, offline.NewOPT(seq), seq)
			if err != nil {
				return nil, err
			}
			return []float64{off, opt}, nil
		},
		Reduce: func(g *runner.Grid) (*trace.Table, error) {
			tab := &trace.Table{Title: title, XLabel: "lambda", YLabel: "total cost", X: floats(lambdas)}
			offVals := make([]float64, len(lambdas))
			optVals := make([]float64, len(lambdas))
			for xi := range lambdas {
				offVals[xi] = stats.Mean(g.RunsAt(xi, 0, 0))
				optVals[xi] = stats.Mean(g.RunsAt(xi, 0, 1))
			}
			tab.Series = []trace.Series{
				{Label: "OFFSTAT", Values: offVals},
				{Label: "OPT", Values: optVals},
			}
			return tab, tab.Validate()
		},
	}
}

// figure13Spec reproduces Figure 13: in less dynamic systems (larger λ) the
// absolute cost goes down, and the relative advantage of allocation and
// migration flexibility declines.
func figure13Spec(o Options) *runner.Spec {
	return figureAbsoluteSpec(o, "13", "Figure 13: OFFSTAT vs OPT cost, commuter dynamic load (β<c)", cost.DefaultParams())
}

// figure14Spec reproduces Figure 14: the same comparison with β = 400 > c = 40.
func figure14Spec(o Options) *runner.Spec {
	return figureAbsoluteSpec(o, "14", "Figure 14: OFFSTAT vs OPT cost, commuter dynamic load (β>c)", cost.InvertedParams())
}

// figureRatioLambdaSpec is the shared grid of Figures 15–17: the ratio of
// OFFSTAT's to OPT's total cost as a function of λ, for both the β < c and
// β > c parameterisations.
func figureRatioLambdaSpec(o Options, name, title string, kind scenarioKind, reqPerRound int) *runner.Spec {
	n := 5
	rounds := pick(o, 200, 60)
	runs := pick(o, 10, 2)
	lambdas := pickSizes(o, []int{1, 2, 5, 10, 20, 50}, []int{2, 10})
	T := 4
	seed := o.seed()

	paramSets := optParamSets()
	labels := []string{paramSets[0].label, paramSets[1].label}
	return &runner.Spec{
		Name: name,
		Xs:   len(lambdas), Variants: len(paramSets), Runs: runs, Width: 1,
		Cell: func(xi, pi, run int) ([]float64, error) {
			s := runSeed(seed, xi*len(paramSets)+pi, run)
			env, seq, err := optInstance(kind, paramSets[pi].params, n, T, lambdas[xi], rounds, reqPerRound, s, o.Metric)
			if err != nil {
				return nil, err
			}
			off, err := runTotal(env, offline.NewOFFSTAT(seq), seq)
			if err != nil {
				return nil, err
			}
			opt, err := runTotal(env, offline.NewOPT(seq), seq)
			if err != nil {
				return nil, err
			}
			return []float64{stats.Ratio(off, opt)}, nil
		},
		Reduce: meanSeriesReduce(title, "lambda", "cost(OFFSTAT) / cost(OPT)", floats(lambdas), labels),
	}
}

// figure15Spec reproduces Figure 15: the benefit of dynamic allocation in the
// dynamic-load commuter scenario. For very high and very low dynamics the
// flexibility of OPT is of limited benefit; at moderate dynamics OPT
// exploits the request pattern for up to a factor of two, and the benefit
// is relatively larger when β > c.
func figure15Spec(o Options) *runner.Spec {
	return figureRatioLambdaSpec(o, "15", "Figure 15: OFFSTAT/OPT ratio vs lambda, commuter dynamic load", commuterDynamic, 0)
}

// figure16Spec reproduces Figure 16: the same ratio in the static-load commuter
// scenario, fluctuating around a low constant for β < c and peaking near
// two at intermediate λ for β > c.
func figure16Spec(o Options) *runner.Spec {
	return figureRatioLambdaSpec(o, "16", "Figure 16: OFFSTAT/OPT ratio vs lambda, commuter static load", commuterStatic, 0)
}

// figure17Spec reproduces Figure 17: the ratio in the time-zone scenario
// (p = 50%, three requests per round). Because the requests move in a
// highly correlated way, creating new servers and migrating existing ones
// are nearly interchangeable, and the β < c and β > c curves come out
// similar.
func figure17Spec(o Options) *runner.Spec {
	return figureRatioLambdaSpec(o, "17", "Figure 17: OFFSTAT/OPT ratio vs lambda, time zones (p=50%)", timeZones, 3)
}

// figureRatioTSpec is the shared grid of Figures 18 and 19: the OFFSTAT/OPT
// ratio as a function of T (200 rounds, λ = 10, five nodes, 10 runs).
func figureRatioTSpec(o Options, name, title string, kind scenarioKind) *runner.Spec {
	n := 5
	rounds := pick(o, 200, 60)
	runs := pick(o, 10, 2)
	Ts := pickSizes(o, []int{2, 4, 6, 8}, []int{2, 4})
	lambda := 10
	seed := o.seed()

	paramSets := optParamSets()
	labels := []string{paramSets[0].label, paramSets[1].label}
	return &runner.Spec{
		Name: name,
		Xs:   len(Ts), Variants: len(paramSets), Runs: runs, Width: 1,
		Cell: func(xi, pi, run int) ([]float64, error) {
			s := runSeed(seed, xi*len(paramSets)+pi, run)
			env, seq, err := optInstance(kind, paramSets[pi].params, n, Ts[xi], lambda, rounds, 0, s, o.Metric)
			if err != nil {
				return nil, err
			}
			off, err := runTotal(env, offline.NewOFFSTAT(seq), seq)
			if err != nil {
				return nil, err
			}
			opt, err := runTotal(env, offline.NewOPT(seq), seq)
			if err != nil {
				return nil, err
			}
			return []float64{stats.Ratio(off, opt)}, nil
		},
		Reduce: meanSeriesReduce(title, "T", "cost(OFFSTAT) / cost(OPT)", floats(Ts), labels),
	}
}

// figure18Spec reproduces Figure 18: a larger T widens the request horizon, so
// both absolute costs and the benefit of migration grow with T in the
// dynamic-load commuter scenario, with β > c benefiting more.
func figure18Spec(o Options) *runner.Spec {
	return figureRatioTSpec(o, "18", "Figure 18: OFFSTAT/OPT ratio vs T, commuter dynamic load", commuterDynamic)
}

// figure19Spec reproduces Figure 19: the same sweep for static load.
func figure19Spec(o Options) *runner.Spec {
	return figureRatioTSpec(o, "19", "Figure 19: OFFSTAT/OPT ratio vs T, commuter static load", commuterStatic)
}

package experiments

import (
	"math/rand"

	"repro/internal/cost"
	"repro/internal/experiments/runner"
)

// figureLambdaSpec is the shared grid of Figures 8–10: total cost of the
// online strategies as a function of λ (runtime 900 rounds, T = 10, network
// size 200, averaged over 10 runs). One cell per (λ, strategy, run).
func figureLambdaSpec(o Options, name, title string, kind scenarioKind) *runner.Spec {
	n := pick(o, 200, 60)
	rounds := pick(o, 900, 200)
	runs := pick(o, 10, 2)
	lambdas := pickSizes(o, []int{1, 2, 5, 10, 20, 40, 80}, []int{2, 10, 40})
	T := 10
	seed := o.seed()

	labels := []string{"ONBR-fixed", "ONBR-dyn", "ONTH"}
	return &runner.Spec{
		Name: name,
		Xs:   len(lambdas), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := buildScenario(kind, env.Metric, T, lambdas[xi], rounds, 0, rand.New(rand.NewSource(s+1)))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, onlineContenders()[ai], seq))
		},
		Reduce: meanSeriesReduce(title, "lambda", "total cost", floats(lambdas), labels),
	}
}

// figure8Spec reproduces Figure 8: cost as a function of λ in the commuter
// scenario with dynamic load. The total cost is largely independent of λ,
// with ONTH better by roughly a factor of two.
func figure8Spec(o Options) *runner.Spec {
	return figureLambdaSpec(o, "8", "Figure 8: cost vs lambda, commuter dynamic load", commuterDynamic)
}

// figure9Spec reproduces Figure 9: the same sweep for the static-load commuter
// scenario.
func figure9Spec(o Options) *runner.Spec {
	return figureLambdaSpec(o, "9", "Figure 9: cost vs lambda, commuter static load", commuterStatic)
}

// figure10Spec reproduces Figure 10: the same sweep for the time-zone scenario
// with p = 50%. The total cost decreases slightly with λ because fewer
// migrations are needed when the hotspot moves less often.
func figure10Spec(o Options) *runner.Spec {
	return figureLambdaSpec(o, "10", "Figure 10: cost vs lambda, time zones (p=50%)", timeZones)
}

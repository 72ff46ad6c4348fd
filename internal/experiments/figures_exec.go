package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/graph"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// exemplaryRun plays ONTH once and returns the number of active servers per
// round, the time series Figures 1 and 2 plot for linear and quadratic load
// functions.
func exemplaryRun(env *sim.Env, seq *workload.Sequence) ([]float64, error) {
	l, err := sim.Run(env, online.NewONTH(), seq)
	if err != nil {
		return nil, err
	}
	active := make([]float64, len(l.Rounds))
	for t, r := range l.Rounds {
		active[t] = float64(r.Active)
	}
	return active, nil
}

// figureExecSpec is the shared grid of Figures 1 and 2: one cell per load
// model, each a single exemplary run whose cell value is the whole
// active-servers time series.
func figureExecSpec(o Options, name, title string, kind scenarioKind, n, T, lambda, rounds int) *runner.Spec {
	seed := o.seed()
	loads := []cost.LoadFunc{cost.Linear{}, cost.Quadratic{}}
	// Both load models run on the same substrate. The graph and its
	// all-pairs matrix — the figure's most expensive setup — are built once
	// per process, inside the Once so concurrent cells cannot duplicate the
	// metric computation, and shared by the cells evaluated there; a worker
	// process that only gets one cell regenerates the identical graph from
	// the same seed, so results do not depend on where cells run.
	var (
		graphOnce sync.Once
		sharedG   *graph.Graph
		sharedM   graph.Metric
		graphErr  error
	)
	substrate := func() (*graph.Graph, graph.Metric, error) {
		graphOnce.Do(func() {
			if sharedG, graphErr = erGraph(n, seed); graphErr != nil {
				return
			}
			sharedM, graphErr = graph.NewMetric(sharedG, o.Metric)
		})
		return sharedG, sharedM, graphErr
	}
	return &runner.Spec{
		Name: name,
		Xs:   1, Variants: len(loads), Runs: 1, Width: rounds,
		Cell: func(_, vi, _ int) ([]float64, error) {
			g, m, err := substrate()
			if err != nil {
				return nil, err
			}
			env, err := sim.NewEnvMetric(g, m, loads[vi], cost.AssignMinCost, cost.DefaultParams(), poolDefaults(), nil)
			if err != nil {
				return nil, err
			}
			seq, err := buildScenario(kind, env.Metric, T, lambda, rounds, 0, nil)
			if err != nil {
				return nil, err
			}
			return exemplaryRun(env, seq)
		},
		Reduce: func(g *runner.Grid) (*trace.Table, error) {
			tab := &trace.Table{
				Title:  title,
				XLabel: "round",
				YLabel: "active servers (ONTH)",
			}
			for vi, load := range loads {
				tab.Series = append(tab.Series, trace.Series{
					Label:  fmt.Sprintf("%s load", load.Name()),
					Values: g.Cell(0, vi, 0),
				})
			}
			tab.X = make([]float64, rounds)
			for t := range tab.X {
				tab.X[t] = float64(t)
			}
			return tab, tab.Validate()
		},
	}
}

// figure1Spec reproduces Figure 1: an exemplary execution of ONTH in the
// commuter scenario with dynamic load (runtime 1000 rounds, T = 14, network
// size 1000, λ = 20), showing that steeper load functions (quadratic vs
// linear) make ONTH allocate more servers as demand fans out.
func figure1Spec(o Options) *runner.Spec {
	n := pick(o, 1000, 120)
	rounds := pick(o, 1000, 280)
	T := pick(o, 14, 8)
	return figureExecSpec(o, "1", "Figure 1: ONTH execution, commuter dynamic load", commuterDynamic,
		n, T, 20, rounds)
}

// figure2Spec reproduces Figure 2: the same exemplary execution for the
// commuter scenario with static load (runtime 1000 rounds, T = 12, network
// size 500, λ = 20). The system converges quickly to a server count that is
// largely independent of how many access points the fixed demand originates
// from, with the quadratic load model requiring more servers.
func figure2Spec(o Options) *runner.Spec {
	n := pick(o, 500, 120)
	rounds := pick(o, 1000, 280)
	T := pick(o, 12, 8)
	return figureExecSpec(o, "2", "Figure 2: ONTH execution, commuter static load", commuterStatic,
		n, T, 20, rounds)
}

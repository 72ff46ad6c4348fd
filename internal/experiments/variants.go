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

// onlineVariant names one strategy of the variant comparison and how to
// build it for a given run seed.
type onlineVariant struct {
	label string
	make  func(s int64) sim.Algorithm
}

func onlineVariants() []onlineVariant {
	return []onlineVariant{
		{"ONTH", func(int64) sim.Algorithm { return online.NewONTH() }},
		{"ONBR-fixed", func(int64) sim.Algorithm { return online.NewONBR() }},
		{"ONBR-dyn", func(int64) sim.Algorithm { return online.NewONBRDynamic() }},
		{"ONBR-cluster", func(int64) sim.Algorithm { return online.NewONBRClustered(4) }},
		{"ONSAMP", func(int64) sim.Algorithm { return online.NewONSAMP() }},
		{"ONCONF", func(s int64) sim.Algorithm { return online.NewONCONF(rand.New(rand.NewSource(s + 99))) }},
		{"WFA", func(int64) sim.Algorithm { return online.NewWFA() }},
	}
}

// variantsSpec is the grid of the variant comparison: one cell per run,
// playing OPT plus every strategy on the shared small instance and
// returning all totals followed by all ratios.
//
// Every implemented online strategy — including the paper-sketched
// speed-ups (ONSAMP sampling, clustered ONBR) and the
// metrical-task-system baseline WFA — plays against OPT on an instance
// where the exponential-space algorithms (ONCONF, WFA, OPT) are still
// tractable. The output is one series per strategy with its mean total
// cost and its mean competitive ratio against OPT.
func variantsSpec(o Options) *runner.Spec {
	n := 8
	rounds := pick(o, 300, 100)
	runs := pick(o, 10, 2)
	k := 3
	seed := o.seed()

	variants := onlineVariants()
	return &runner.Spec{
		Name: "variants",
		Xs:   1, Variants: 1, Runs: runs, Width: 2 * len(variants),
		Cell: func(_, _, run int) ([]float64, error) {
			s := runSeed(seed, 0, run)
			env, err := lineEnv(n, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			env.Pool.MaxServers = k
			seq, err := workload.CommuterDynamic(env.Metric,
				workload.CommuterConfig{T: 6, Lambda: 8}, rounds)
			if err != nil {
				return nil, err
			}
			opt, err := runTotal(env, offline.NewOPT(seq), seq)
			if err != nil {
				return nil, err
			}
			out := make([]float64, 2*len(variants))
			for vi, v := range variants {
				total, err := runTotal(env, v.make(s), seq)
				if err != nil {
					return nil, err
				}
				out[vi] = total
				out[len(variants)+vi] = stats.Ratio(total, opt)
			}
			return out, nil
		},
		Reduce: func(g *runner.Grid) (*trace.Table, error) {
			tab := &trace.Table{
				Title:  "Online variants vs OPT (line n=8, k=3, commuter dynamic)",
				XLabel: "metric (0=total cost, 1=ratio vs OPT)",
				YLabel: "mean over runs",
				X:      []float64{0, 1},
			}
			for vi, v := range variants {
				tab.Series = append(tab.Series, trace.Series{
					Label: v.label,
					Values: []float64{
						stats.Mean(g.RunsAt(0, 0, vi)),
						stats.Mean(g.RunsAt(0, 0, len(variants)+vi)),
					},
				})
			}
			return tab, tab.Validate()
		},
	}
}

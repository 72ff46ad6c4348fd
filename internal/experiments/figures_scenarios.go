package experiments

import (
	"math/rand"

	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/offline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scenarioContenders returns fresh instances of the strategies the
// scenario sweeps compare: the online trio plus the offline lookahead
// variants, which exercise the driver's access-reuse hook end-to-end.
func scenarioContenders(seq *workload.Sequence) []sim.Algorithm {
	return append(onlineContenders(), offline.NewOFFBR(seq), offline.NewOFFTH(seq))
}

// scenarioLabels names the contenders' series.
func scenarioLabels() []string {
	return []string{"ONBR-fixed", "ONBR-dyn", "ONTH", "OFFBR-fixed", "OFFTH"}
}

// compareScenariosSpec is the grid of the cross-scenario comparison: one
// cell per (workload family, strategy, run) on a shared Erdős–Rényi
// substrate.
// The families are the paper's commuter and time-zones scenarios and the
// composable flash-crowd, diurnal multi-region, and weekday/weekend
// scenarios. One x-position per scenario (in allScenarios order), one
// series per strategy, mean total cost over the runs.
func compareScenariosSpec(o Options) *runner.Spec {
	n := pick(o, 200, 60)
	rounds := pick(o, 900, 200)
	runs := pick(o, 10, 2)
	T := 10
	lambda := 10
	seed := o.seed()

	kinds := allScenarios()
	labels := scenarioLabels()
	return &runner.Spec{
		Name: "compare-scenarios",
		Xs:   len(kinds), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := buildScenario(kinds[xi], env.Metric, T, lambda, rounds, 0, rand.New(rand.NewSource(s+1)))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, scenarioContenders(seq)[ai], seq))
		},
		Reduce: meanSeriesReduce(
			"Scenario comparison: total cost per workload family",
			"scenario (0=commuter-dyn, 1=commuter-static, 2=time-zones, 3=flash-crowd, 4=diurnal, 5=weekly)",
			"total cost",
			floats(intRange(len(kinds))), labels),
	}
}

// intRange returns [0, 1, ..., n-1].
func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// scenarioFlashCrowdSpec is the grid of the flash-crowd amplitude sweep:
// one cell per (spike peak, strategy, run).
// x is the peak volume as a multiple of the background, and the series
// are the contenders' mean total costs. Sharper crowds reward strategies
// that reconfigure decisively (and the lookahead variants that see them
// coming).
func scenarioFlashCrowdSpec(o Options) *runner.Spec {
	n := pick(o, 200, 60)
	rounds := pick(o, 900, 200)
	runs := pick(o, 10, 2)
	base := 8
	tau := 20.0
	peaks := pickSizes(o, []int{1, 2, 4, 8, 16}, []int{2, 8})
	seed := o.seed()

	labels := scenarioLabels()
	return &runner.Spec{
		Name: "scenario-flash-crowd",
		Xs:   len(peaks), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := workload.FlashCrowd(env.Metric, workload.FlashCrowdConfig{
				BaseRequests: base, Spikes: 4, Peak: float64(peaks[xi] * base), Tau: tau,
			}, rounds, rand.New(rand.NewSource(s+1)))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, scenarioContenders(seq)[ai], seq))
		},
		Reduce: meanSeriesReduce(
			"Flash crowd: cost vs spike amplitude",
			"spike peak (multiple of background volume)",
			"total cost",
			floats(peaks), labels),
	}
}

// scenarioDiurnalSpec is the grid of the diurnal region-count sweep: one
// cell per (region count, strategy, run).
// x is the region count k, and the series are the contenders' mean total
// costs. More regions mean a faster-moving sun — shorter daytime windows
// stress how quickly each strategy re-centers.
func scenarioDiurnalSpec(o Options) *runner.Spec {
	n := pick(o, 200, 60)
	rounds := pick(o, 900, 200)
	runs := pick(o, 10, 2)
	period := 80
	regionCounts := pickSizes(o, []int{2, 3, 4, 6, 8}, []int{2, 4})
	seed := o.seed()

	labels := scenarioLabels()
	return &runner.Spec{
		Name: "scenario-diurnal",
		Xs:   len(regionCounts), Variants: len(labels), Runs: runs, Width: 1,
		Cell: func(xi, ai, run int) ([]float64, error) {
			s := runSeed(seed, xi, run)
			env, err := erEnv(n, cost.Linear{}, cost.DefaultParams(), s, o.Metric)
			if err != nil {
				return nil, err
			}
			seq, err := workload.DiurnalMultiRegion(env.Metric, workload.DiurnalConfig{
				Regions: regionCounts[xi], Period: period, HotShare: 0.5,
			}, rounds, rand.New(rand.NewSource(s+1)))
			if err != nil {
				return nil, err
			}
			return one(runTotal(env, scenarioContenders(seq)[ai], seq))
		},
		Reduce: meanSeriesReduce(
			"Diurnal multi-region: cost vs region count",
			"regions k",
			"total cost",
			floats(regionCounts), labels),
	}
}

// Package experiments regenerates every figure and table of the paper's
// evaluation (Section V). Each experiment is a declarative runner.Spec,
// built by name with NewSpec: each figure's figureNSpec reproduces its
// set-up — topology family, workload scenario, cost parameters, runtime,
// and number of averaged runs — and its reduction returns the series the
// paper plots as a trace.Table.
//
// Absolute numbers differ from the paper (the substrate topologies are
// regenerated, not the authors' exact instances), but the comparative
// shapes are preserved; EXPERIMENTS.md records paper-vs-measured for every
// figure.
//
// A spec is a grid of independent cells (x-position × variant × run) whose
// randomness derives only from the seed and the cell coordinates, plus a
// reduction into the plotted table. runner.Run executes it in process;
// cmd/figures also runs the same grids across worker processes (-procs)
// and machines (-shard/-merge), with bit-identical results on every
// backend.
package experiments

import (
	"cmp"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments/runner"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options scale an experiment.
type Options struct {
	// Quick selects a scaled-down variant (smaller networks, fewer rounds
	// and runs) with the same qualitative behaviour; used by the benchmark
	// harness and CI. The zero value reproduces the paper's set-up.
	Quick bool
	// Seed is the base seed; 0 selects the default (1).
	Seed int64
	// Metric selects the distance backend every environment is built
	// with — "dense" (default), "sparse[:rows]", or "landmark[:k]", see
	// graph.NewMetric. Exact backends (dense, sparse) produce
	// bit-identical figures; landmark is an upper-bound approximation.
	Metric string
	// MaxConfigs overrides the configuration-space bound of the
	// enumeration-based algorithms (WFA, ONCONF) in the experiments that
	// run them beyond the default online.MaxONCONFConfigs; 0 keeps each
	// experiment's own default. The bound is a memory knob, not a
	// semantic one — it never changes results, only whether Reset admits
	// the space.
	MaxConfigs int
}

// String is the canonical text of the options a cell's values depend on —
// seed, quick and metric, with the defaults spelled out — the form
// runner.Spec.Options carries to workers and into partial files.
// MaxConfigs is left out: it bounds memory, not values, so every process
// sets its own.
func (o Options) String() string {
	return fmt.Sprintf("seed=%d quick=%t metric=%s", o.seed(), o.Quick, cmp.Or(o.Metric, "dense"))
}

// ParseOptions inverts String; it accepts only String's canonical form.
func ParseOptions(s string) (Options, error) {
	var o Options
	if _, err := fmt.Sscanf(s, "seed=%d quick=%t metric=%s", &o.Seed, &o.Quick, &o.Metric); err != nil || o.String() != s {
		return Options{}, fmt.Errorf("experiments: options %q are not of the form %q", s, "seed=N quick=BOOL metric=SPEC")
	}
	return o, nil
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// pick returns full for the paper set-up and quick in Quick mode.
func pick(o Options, full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

func pickSizes(o Options, full, quick []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// ErdosRenyiP is the paper's connection probability for the artificial
// substrates ("with connection probability 1%").
const ErdosRenyiP = 0.01

// poolDefaults are the paper's inactive-cache parameters: a FIFO queue of
// size 3 whose entries expire after x = 20 epochs.
func poolDefaults() core.Params {
	return core.Params{QueueCap: 3, Expiry: 20}
}

// erGraph generates the paper's artificial substrate topology: an
// Erdős–Rényi graph with 1% connection probability and T1/T2 bandwidths.
func erGraph(n int, seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	return gen.ErdosRenyi(n, ErdosRenyiP, gen.DefaultOptions(), rng)
}

// newMetricEnv builds an environment with the backend the metric spec
// selects (graph.NewMetric; the empty spec is the dense matrix).
func newMetricEnv(g *graph.Graph, load cost.LoadFunc, policy cost.Policy, params cost.Params, pool core.Params, spec string) (*sim.Env, error) {
	m, err := graph.NewMetric(g, spec)
	if err != nil {
		return nil, err
	}
	return sim.NewEnvMetric(g, m, load, policy, params, pool, nil)
}

// erEnv builds the paper's artificial substrate: an Erdős–Rényi graph with
// 1% connection probability, T1/T2 bandwidths, and the default cost model,
// under the metric backend the spec selects.
func erEnv(n int, load cost.LoadFunc, params cost.Params, seed int64, metric string) (*sim.Env, error) {
	g, err := erGraph(n, seed)
	if err != nil {
		return nil, err
	}
	return newMetricEnv(g, load, cost.AssignMinCost, params, poolDefaults(), metric)
}

// lineEnv builds the paper's OPT substrate: a line graph with random
// latencies ("to simulate OPT, we constrain ourselves to line graphs").
func lineEnv(n int, params cost.Params, seed int64, metric string) (*sim.Env, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.Line(n, gen.DefaultOptions(), rng)
	if err != nil {
		return nil, err
	}
	return newMetricEnv(g, cost.Linear{}, cost.AssignMinCost, params, poolDefaults(), metric)
}

// runSeed derives a deterministic per-run seed from the experiment seed, an
// x-position index, and the run index.
func runSeed(base int64, x, run int) int64 {
	return base + int64(x)*1_000_003 + int64(run)*7_919
}

// floats widens an int axis to the float64 x-values a table plots.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// one wraps a single run result as a cell value, propagating the error.
func one(v float64, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return []float64{v}, nil
}

// onlineContenders returns fresh instances of the three strategies the
// paper's online comparisons plot: ONBR with fixed threshold 2c, ONBR with
// the dynamic threshold 2c/ℓ, and ONTH.
func onlineContenders() []sim.Algorithm {
	return []sim.Algorithm{online.NewONBR(), online.NewONBRDynamic(), online.NewONTH()}
}

// runTotal plays one algorithm over one sequence and returns the total cost.
func runTotal(env *sim.Env, alg sim.Algorithm, seq *workload.Sequence) (float64, error) {
	l, err := sim.Run(env, alg, seq)
	if err != nil {
		return 0, err
	}
	return l.Total(), nil
}

// scenarioKind selects one of the workload families: the paper's own
// scenarios (Section V-A) or the composable scenarios built on the
// workload/scenario engine.
type scenarioKind int

const (
	commuterDynamic scenarioKind = iota
	commuterStatic
	timeZones
	flashCrowd
	diurnalMultiRegion
	weekdayWeekend
)

func (s scenarioKind) String() string {
	switch s {
	case commuterDynamic:
		return "commuter-dynamic"
	case commuterStatic:
		return "commuter-static"
	case timeZones:
		return "time-zones"
	case flashCrowd:
		return "flash-crowd"
	case diurnalMultiRegion:
		return "diurnal-multi-region"
	case weekdayWeekend:
		return "weekday-weekend"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// allScenarios lists every workload family an experiment can sweep.
func allScenarios() []scenarioKind {
	return []scenarioKind{
		commuterDynamic, commuterStatic, timeZones,
		flashCrowd, diurnalMultiRegion, weekdayWeekend,
	}
}

// BuildNamedScenario instantiates a workload family by its canonical name
// (a scenarioKind String(): "commuter-dynamic", "commuter-static",
// "time-zones", "flash-crowd", "diurnal-multi-region",
// "weekday-weekend"). It is the single source of the per-family default
// derivation, shared by the experiment sweeps and the cmd/flexserve CLI
// so the two can never drift apart.
func BuildNamedScenario(name string, m graph.Metric, T, lambda, rounds, reqPerRound int, rng *rand.Rand) (*workload.Sequence, error) {
	for _, kind := range allScenarios() {
		if kind.String() == name {
			return buildScenario(kind, m, T, lambda, rounds, reqPerRound, rng)
		}
	}
	return nil, fmt.Errorf("experiments: unknown scenario %q", name)
}

// buildScenario instantiates a workload of the given kind on a substrate.
// The shared knobs map onto each family: T is the number of day
// phases/periods, lambda the rounds per phase (spike decay for flash
// crowds), reqPerRound the volume (0 derives the commuter-comparable
// default). All randomness comes from rng, so a (seed, x, run) triple
// fully determines the sequence.
func buildScenario(kind scenarioKind, m graph.Metric, T, lambda, rounds, reqPerRound int, rng *rand.Rand) (*workload.Sequence, error) {
	switch kind {
	case commuterDynamic:
		return workload.CommuterDynamic(m, workload.CommuterConfig{T: T, Lambda: lambda}, rounds)
	case commuterStatic:
		return workload.CommuterStatic(m, workload.CommuterConfig{T: T, Lambda: lambda}, rounds)
	case timeZones:
		return workload.TimeZones(m, workload.TimeZonesConfig{
			T: T, P: 0.5, Lambda: lambda, RequestsPerRound: reqPerRound,
		}, rounds, rng)
	case flashCrowd:
		base := reqPerRound
		if base == 0 {
			base = 1 << uint(T/2)
		}
		return workload.FlashCrowd(m, workload.FlashCrowdConfig{
			BaseRequests: base, Spikes: 4, Peak: 2 * float64(base), Tau: float64(lambda),
		}, rounds, rng)
	case diurnalMultiRegion:
		return workload.DiurnalMultiRegion(m, workload.DiurnalConfig{
			Regions: 4, Period: T * lambda, HotShare: 0.5, RequestsPerRound: reqPerRound,
		}, rounds, rng)
	case weekdayWeekend:
		day := 2 * lambda
		if day < T {
			day = T // a day fits at least one full fan cycle
		}
		return workload.WeekdayWeekend(m, workload.WeeklyConfig{
			DayLen: day, T: T,
		}, rounds, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown scenario %d", kind)
	}
}

// meanSeriesReduce is the reduction shared by every sweep figure: one series
// per variant, each data point the mean of that (x, variant) pair's runs.
// Averaging follows run order, so the result is bit-identical to the former
// hand-rolled loops.
func meanSeriesReduce(title, xlabel, ylabel string, xs []float64, labels []string) func(*runner.Grid) (*trace.Table, error) {
	return func(g *runner.Grid) (*trace.Table, error) {
		tab := &trace.Table{Title: title, XLabel: xlabel, YLabel: ylabel, X: xs}
		for vi, label := range labels {
			vals := make([]float64, len(xs))
			for xi := range xs {
				vals[xi] = stats.Mean(g.Runs(xi, vi))
			}
			tab.Series = append(tab.Series, trace.Series{Label: label, Values: vals})
		}
		return tab, tab.Validate()
	}
}

// SpecNames lists every experiment the registry can build, in canonical
// order: the paper figures, the Rocketfuel table, the ablations, and the
// variant/scenario sweeps. Worker processes and shard runs address
// experiments by these names.
func SpecNames() []string {
	names := make([]string, 0, len(specRegistry()))
	for _, e := range specRegistry() {
		names = append(names, e.name)
	}
	return names
}

// NewSpec builds the declarative grid of one experiment by name. The same
// (name, Options) pair builds the identical spec in every process, which is
// what lets coordinator and workers agree on cell coordinates.
func NewSpec(name string, o Options) (*runner.Spec, error) {
	for _, e := range specRegistry() {
		if e.name == name {
			sp := e.build(o)
			sp.Options = o.String()
			return sp, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown spec %q", name)
}

type specEntry struct {
	name  string
	build func(Options) *runner.Spec
}

func specRegistry() []specEntry {
	return []specEntry{
		{"1", figure1Spec},
		{"2", figure2Spec},
		{"3", figure3Spec},
		{"4", figure4Spec},
		{"5", figure5Spec},
		{"6", figure6Spec},
		{"7", figure7Spec},
		{"8", figure8Spec},
		{"9", figure9Spec},
		{"10", figure10Spec},
		{"11", figure11Spec},
		{"12", figure12Spec},
		{"13", figure13Spec},
		{"14", figure14Spec},
		{"15", figure15Spec},
		{"16", figure16Spec},
		{"17", figure17Spec},
		{"18", figure18Spec},
		{"19", figure19Spec},
		{"rocketfuel", rocketfuelSpec},
		{"wfa-rocketfuel", wfaRocketfuelSpec},
		{"ablation-queue", ablationQueueSpec},
		{"ablation-expiry", ablationExpirySpec},
		{"ablation-y", ablationYSpec},
		{"ablation-theta", ablationThetaSpec},
		{"ablation-load", ablationLoadSpec},
		{"ablation-assign", ablationAssignSpec},
		{"variants", variantsSpec},
		{"compare-scenarios", compareScenariosSpec},
		{"scenario-flash-crowd", scenarioFlashCrowdSpec},
		{"scenario-diurnal", scenarioDiurnalSpec},
	}
}

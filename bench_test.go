// Benchmarks regenerating every figure and table of the paper's evaluation
// (scaled-down Quick set-up so a full -bench=. sweep stays tractable; run
// cmd/figures without -quick for the paper-scale numbers), plus
// micro-benchmarks of the hot paths: shortest paths, access-cost
// evaluation, candidate scoring, pool reconfiguration, and the OPT dynamic
// program.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

func benchFigure(b *testing.B, fn func(experiments.Options) (*trace.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper's evaluation section.

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, experiments.Figure13) }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, experiments.Figure14) }
func BenchmarkFigure15(b *testing.B) { benchFigure(b, experiments.Figure15) }
func BenchmarkFigure16(b *testing.B) { benchFigure(b, experiments.Figure16) }
func BenchmarkFigure17(b *testing.B) { benchFigure(b, experiments.Figure17) }
func BenchmarkFigure18(b *testing.B) { benchFigure(b, experiments.Figure18) }
func BenchmarkFigure19(b *testing.B) { benchFigure(b, experiments.Figure19) }

// BenchmarkTableRocketfuel regenerates the Section V closing experiment on
// the AS-7018-like topology.
func BenchmarkTableRocketfuel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableRocketfuel(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationQueue(b *testing.B)  { benchFigure(b, experiments.AblationQueue) }
func BenchmarkAblationExpiry(b *testing.B) { benchFigure(b, experiments.AblationExpiry) }
func BenchmarkAblationY(b *testing.B)      { benchFigure(b, experiments.AblationY) }
func BenchmarkAblationTheta(b *testing.B)  { benchFigure(b, experiments.AblationTheta) }
func BenchmarkAblationLoad(b *testing.B)   { benchFigure(b, experiments.AblationLoad) }
func BenchmarkAblationAssign(b *testing.B) { benchFigure(b, experiments.AblationAssign) }

// BenchmarkCompareOnlineVariants pits every online strategy (including the
// sampling, clustering and work-function variants) against OPT.
func BenchmarkCompareOnlineVariants(b *testing.B) {
	benchFigure(b, experiments.CompareOnlineVariants)
}

// BenchmarkFigureRunnerLocal builds one figure spec and executes its full
// cell grid through the declarative runner's bounded Local pool — the
// scheduling path every figure family now shares (spec construction, cell
// fan-out, grid collection, reduction).
func BenchmarkFigureRunnerLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := experiments.NewSpec("13", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(spec, runner.Local{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the library's hot paths.

func benchGraph(b *testing.B, n int) *sim.Env {
	b.Helper()
	g, err := gen.ErdosRenyi(n, 0.02, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func BenchmarkAllPairs500(b *testing.B) {
	g, err := gen.ErdosRenyi(500, 0.01, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairs()
	}
}

// benchSubstrate is the shared small-world substrate of the metric-backend
// benchmarks: large enough (5000 nodes) that one Dijkstra row is real work,
// small enough that the cold-row benchmark stays fast.
func benchSubstrate(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.SmallWorld(5000, 1250, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSparseRowCold measures the cache-miss path of the sparse metric
// backend: a capacity-1 cache with a rotating source makes every Row call
// run a fresh Dijkstra plus the LRU bookkeeping.
func BenchmarkSparseRowCold(b *testing.B) {
	g := benchSubstrate(b)
	s := graph.NewSparse(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Row(i % 64)
	}
}

// BenchmarkSparseRowWarm measures the cache-hit path: the same source every
// time, so the cost is the lock, the map lookup, and the LRU touch.
func BenchmarkSparseRowWarm(b *testing.B) {
	g := benchSubstrate(b)
	s := graph.NewSparse(g, graph.DefaultSparseRows)
	s.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Row(0)
	}
}

// BenchmarkLandmarkDist measures one triangle-bound query against a built
// 16-landmark table (the build itself runs once, outside the timer).
func BenchmarkLandmarkDist(b *testing.B) {
	g := benchSubstrate(b)
	l := graph.NewLandmark(g, graph.DefaultLandmarks)
	l.Dist(0, 1) // force the table build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Dist(i%5000, (i*7+13)%5000)
	}
}

// BenchmarkSmallWorldConstruct100k measures building the 10⁵-node substrate
// the sparse/landmark backends exist for — O(n + chords), no all-pairs
// materialization anywhere.
func BenchmarkSmallWorldConstruct100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.SmallWorld(100000, 25000, gen.DefaultOptions(), rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessLinear(b *testing.B) {
	env := benchGraph(b, 300)
	rng := rand.New(rand.NewSource(2))
	list := make([]int, 128)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	d := cost.DemandFromList(list)
	servers := []int{10, 50, 100, 150, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Eval.Access(servers, d)
	}
}

func BenchmarkAccessQuadratic(b *testing.B) {
	g, err := gen.ErdosRenyi(300, 0.02, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Quadratic{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	list := make([]int, 128)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	d := cost.DemandFromList(list)
	servers := []int{10, 50, 100, 150, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Eval.Access(servers, d)
	}
}

func BenchmarkScorerSweep(b *testing.B) {
	env := benchGraph(b, 300)
	rng := rand.New(rand.NewSource(3))
	list := make([]int, 128)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	d := cost.DemandFromList(list)
	servers := []int{10, 50, 100, 150, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, ok := cost.NewScorer(env.Eval, servers, d)
		if !ok {
			b.Fatal("no scorer")
		}
		// A full single-change sweep: every move of every server.
		for si := range servers {
			for v := 0; v < 300; v += 7 {
				sc.Move(si, v)
			}
		}
	}
}

// BenchmarkScorerSweepReuse is BenchmarkScorerSweep with the scorer
// released back to the pool each iteration, the steady-state pattern of
// the epoch algorithms (allocation-free construction).
func BenchmarkScorerSweepReuse(b *testing.B) {
	env := benchGraph(b, 300)
	rng := rand.New(rand.NewSource(3))
	list := make([]int, 128)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	d := cost.DemandFromList(list)
	servers := []int{10, 50, 100, 150, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, ok := cost.NewScorer(env.Eval, servers, d)
		if !ok {
			b.Fatal("no scorer")
		}
		for si := range servers {
			for v := 0; v < 300; v += 7 {
				sc.Move(si, v)
			}
		}
		sc.Release()
	}
}

// BenchmarkScorerApplyMove measures the incremental commit operation the
// greedy loops use instead of rebuilding the scorer.
func BenchmarkScorerApplyMove(b *testing.B) {
	env := benchGraph(b, 300)
	rng := rand.New(rand.NewSource(5))
	list := make([]int, 128)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	d := cost.DemandFromList(list)
	sc, ok := cost.NewScorer(env.Eval, []int{10, 50, 100, 150, 200}, d)
	if !ok {
		b.Fatal("no scorer")
	}
	defer sc.Release()
	spots := []int{20, 60, 110, 160, 210, 10, 50, 100, 150, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ApplyMove(i%5, spots[i%len(spots)])
	}
}

// BenchmarkBestResponse measures one full epoch sweep (moves,
// deactivations, additions over all nodes) through the parallel
// shape-priced candidate scan.
func BenchmarkBestResponse(b *testing.B) {
	env := benchGraph(b, 300)
	rng := rand.New(rand.NewSource(6))
	list := make([]int, 256)
	for i := range list {
		list[i] = rng.Intn(300)
	}
	agg := cost.DemandFromList(list)
	pool := env.NewPool()
	pool.Bootstrap(core.NewPlacement(10, 50, 100, 150, 200))
	moves := online.SearchMoves{Move: true, Deactivate: true, Add: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		online.BestResponse(env, pool, agg, 12, moves)
	}
}

// BenchmarkONCONF runs the generic configuration-counter algorithm on an
// enumerable configuration space (n=12, k≤5 → 1585 placements): every
// round charges every configuration, the workload the batched ConfSweep
// kernel exists for.
func BenchmarkONCONF(b *testing.B) {
	g, err := gen.ErdosRenyi(12, 0.3, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20, MaxServers: 5})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 4, Lambda: 8}, 120)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, online.NewONCONF(rand.New(rand.NewSource(2))), seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWFA runs the work-function baseline on n=12, k≤3 (298 states):
// per round one task-cost evaluation per state plus the O(states²) work
// function update.
func BenchmarkWFA(b *testing.B) {
	g, err := gen.ErdosRenyi(12, 0.3, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20, MaxServers: 3})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 4, Lambda: 8}, 120)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, online.NewWFA(), seq); err != nil {
			b.Fatal(err)
		}
	}
}

// largeSpaceEnv is the shared set-up of the large-space benchmarks: n=64,
// k≤4 is a 679120-state configuration space — more than 10× the default
// MaxONCONFConfigs bound, and intractable for the removed dense O(C²)
// path (whose distance matrix alone would have needed ≈3.4 TiB).
func largeSpaceEnv(b *testing.B) (*sim.Env, *workload.Sequence) {
	b.Helper()
	g, err := gen.ErdosRenyi(64, 0.1, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20, MaxServers: 4})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 4, Lambda: 8}, 32)
	if err != nil {
		b.Fatal(err)
	}
	return env, seq
}

// BenchmarkWFALargeSpace measures one work-function round on the
// 679120-state space: the batched task-cost sweep plus the hierarchically
// pruned move rule and work-function update. Enumeration, clustering, and
// the sweep layout happen once outside the timer.
func BenchmarkWFALargeSpace(b *testing.B) {
	env, seq := largeSpaceEnv(b)
	a := online.NewWFA()
	a.MaxConfigs = 1 << 20
	if err := a.Reset(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Observe(i, seq.Demand(i%seq.Len()), cost.AccessCost{})
	}
	configs, clusters, _ := a.Stats()
	b.ReportMetric(float64(configs), "configs")
	b.ReportMetric(float64(clusters), "clusters")
}

// BenchmarkONCONFLargeSpace measures one counter round on the same
// 679120-state space: the batched sweep plus the cluster-fanned charge
// pass.
func BenchmarkONCONFLargeSpace(b *testing.B) {
	env, seq := largeSpaceEnv(b)
	a := online.NewONCONF(rand.New(rand.NewSource(2)))
	a.MaxConfigs = 1 << 20
	if err := a.Reset(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Observe(i, seq.Demand(i%seq.Len()), cost.AccessCost{})
	}
}

// BenchmarkLookaheadOFFBR runs the offline best-response strategy whose
// epoch boundaries trigger lookahead window scans over the upcoming
// rounds (the path the per-epoch round-cost memo accelerates).
func BenchmarkLookaheadOFFBR(b *testing.B) {
	env := benchGraph(b, 200)
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: workload.TForSize(200), Lambda: 10}, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, offline.NewOFFBR(seq), seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlashCrowdGen builds the flash-crowd scenario end to end
// (background noise draws plus spike composition through the scenario
// engine's operator chain).
func BenchmarkFlashCrowdGen(b *testing.B) {
	env := benchGraph(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := workload.FlashCrowd(env.Metric, workload.FlashCrowdConfig{
			BaseRequests: 8, Spikes: 4, Peak: 32, Tau: 20,
		}, 300, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiurnalGen builds the diurnal multi-region scenario end to end
// (k-centers partition plus per-region phase-shifted generator stacks).
func BenchmarkDiurnalGen(b *testing.B) {
	env := benchGraph(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := workload.DiurnalMultiRegion(env.Metric, workload.DiurnalConfig{
			Regions: 4, Period: 80, HotShare: 0.5,
		}, 300, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookaheadReuseOFFBR measures the full driver+lookahead path on
// a stable workload whose epochs mostly keep their placement — the case
// the sim.AccessReuser hook deduplicates.
func BenchmarkLookaheadReuseOFFBR(b *testing.B) {
	env := benchGraph(b, 200)
	seq, err := workload.TimeZones(env.Metric,
		workload.TimeZonesConfig{T: 5, P: 0.5, Lambda: 20}, 300, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, offline.NewOFFBR(seq), seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolSwitch(b *testing.B) {
	pool := core.NewPool(core.Params{Costs: cost.DefaultParams(), QueueCap: 3, Expiry: 20})
	pool.Bootstrap(core.NewPlacement(1, 2, 3))
	targets := []core.Placement{
		core.NewPlacement(1, 2, 4),
		core.NewPlacement(1, 2, 3),
		core.NewPlacement(2, 3),
		core.NewPlacement(2, 3, 5, 7),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.SwitchTo(targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPTLine5(b *testing.B) {
	g, err := gen.Line(5, gen.DefaultOptions(), rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 4, Lambda: 10}, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := offline.NewOPT(seq)
		if err := opt.Reset(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPTLine16K4 solves the config-space benchmark's OPT instance:
// a line of 16 nodes at k=4 (2,517 occupied sets, 34,113 states) over 60
// commuter-dynamic rounds.
func BenchmarkOPTLine16K4(b *testing.B) {
	g, err := gen.Line(16, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20, MaxServers: 4})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: workload.TForSize(16), Lambda: 10}, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := offline.NewOPT(seq)
		if err := opt.Reset(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkONTHCommuter(b *testing.B) {
	env := benchGraph(b, 200)
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: workload.TForSize(200), Lambda: 10}, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, online.NewONTH(), seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkONBRCommuter(b *testing.B) {
	env := benchGraph(b, 200)
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: workload.TForSize(200), Lambda: 10}, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(env, online.NewONBR(), seq); err != nil {
			b.Fatal(err)
		}
	}
}

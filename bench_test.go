// Benchmarks regenerating every figure and table of the paper's evaluation
// (scaled-down Quick set-up so a full -bench=. sweep stays tractable; run
// cmd/figures without -quick for the paper-scale numbers), plus
// micro-benchmarks of the hot paths: shortest paths, access-cost
// evaluation, candidate scoring, pool reconfiguration, and the OPT dynamic
// program.
package repro

import (
	"math"
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
	"repro/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

// benchFigure builds the named spec and runs it on the in-process runner,
// the path cmd/figures takes.
func benchFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		spec, err := experiments.NewSpec(name, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper's evaluation section.

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, "1") }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, "2") }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, "3") }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, "4") }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, "5") }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, "6") }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, "7") }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, "8") }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, "9") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "10") }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "11") }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "12") }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "13") }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "14") }
func BenchmarkFigure15(b *testing.B) { benchFigure(b, "15") }
func BenchmarkFigure16(b *testing.B) { benchFigure(b, "16") }
func BenchmarkFigure17(b *testing.B) { benchFigure(b, "17") }
func BenchmarkFigure18(b *testing.B) { benchFigure(b, "18") }
func BenchmarkFigure19(b *testing.B) { benchFigure(b, "19") }

// BenchmarkTableRocketfuel regenerates the Section V closing experiment on
// the AS-7018-like topology.
func BenchmarkTableRocketfuel(b *testing.B) { benchFigure(b, "rocketfuel") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationQueue(b *testing.B)  { benchFigure(b, "ablation-queue") }
func BenchmarkAblationExpiry(b *testing.B) { benchFigure(b, "ablation-expiry") }
func BenchmarkAblationY(b *testing.B)      { benchFigure(b, "ablation-y") }
func BenchmarkAblationTheta(b *testing.B)  { benchFigure(b, "ablation-theta") }
func BenchmarkAblationLoad(b *testing.B)   { benchFigure(b, "ablation-load") }
func BenchmarkAblationAssign(b *testing.B) { benchFigure(b, "ablation-assign") }

// BenchmarkCompareOnlineVariants pits every online strategy (including the
// sampling, clustering and work-function variants) against OPT.
func BenchmarkCompareOnlineVariants(b *testing.B) {
	benchFigure(b, "variants")
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

// BenchmarkShortestFromSmallWorld100k measures one cold distance row of
// the huge-sparse substrate (gen.SmallWorld(100000, 25000)): the work every
// fresh access point of that workload costs.
func BenchmarkShortestFromSmallWorld100k(b *testing.B) {
	g, err := gen.SmallWorld(100000, 25000, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestFrom(i % 64)
	}
}

// BenchmarkShortestFromWideRatio pins the shortest-path kernel's worst
// case: latencies log-uniform over six decades, far more than the kernel's
// 1024 bucket widths per heaviest arc, so half the arcs are lighter than a
// bucket (their heads are rescanned when a label drops) and long runs of
// empty buckets separate the heavy ones.
func BenchmarkShortestFromWideRatio(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	lat := func() float64 { return math.Pow(10, 6*rng.Float64()) }
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, lat(), 1)
	}
	for i := 0; i < n/4; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, lat(), 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestFrom(i % 64)
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

// BenchmarkBestResponse measures one full epoch sweep (moves,
// deactivations, additions over all nodes) through the shape-priced,
// bound-pruned candidate scan.
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

// BenchmarkBestResponseWide is the sweep shape that does the most work in
// the quick figures: k = 14 servers, 150 nodes, 60 distinct access
// points.
func BenchmarkBestResponseWide(b *testing.B) {
	env := benchGraph(b, 150)
	rng := rand.New(rand.NewSource(7))
	spots := rng.Perm(150)
	list := make([]int, 240)
	for i := range list {
		list[i] = spots[i%60]
	}
	agg := cost.DemandFromList(list)
	pool := env.NewPool()
	pool.Bootstrap(core.NewPlacement(spots[60:74]...))
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

// timeZonesSpace is the config-space benchmark workload's sweep instance:
// a 112-node preferential-attachment graph at k=3 (234,248
// configurations in DFS order) and time-zones demand at TForSize(112),
// about 30 access points per round.
func timeZonesSpace(b *testing.B) (*sim.Env, [][]int, *workload.Sequence) {
	b.Helper()
	const n = 112
	g, err := gen.PreferentialAttachment(n, 2, gen.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20, MaxServers: 3})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := experiments.BuildNamedScenario("time-zones", env.Metric,
		workload.TForSize(n), 10, 16, 0, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	placements := core.EnumeratePlacements(n, 3)
	configs := make([][]int, len(placements))
	for i, p := range placements {
		configs[i] = p
	}
	return env, configs, seq
}

// BenchmarkConfSweepTimeZones measures one round's ConfSweep over the
// config-space workload's 234,248 configurations; the sweep is built
// outside the timer.
func BenchmarkConfSweepTimeZones(b *testing.B) {
	env, configs, seq := timeZonesSpace(b)
	sw := cost.NewConfSweep(env.Eval, configs)
	out := make([]float64, len(configs))
	pairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := seq.Demand(i % seq.Len())
		pairs += len(d.Pairs())
		sw.Sweep(d, out)
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkNewConfSweep measures building the sweep over the same space:
// flattening, parent links and per-node offsets.
func BenchmarkNewConfSweep(b *testing.B) {
	env, configs, _ := timeZonesSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost.NewConfSweep(env.Eval, configs)
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

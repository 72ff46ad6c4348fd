package online

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file pins the batched-sweep rewrites of ONCONF and WFA to naive
// reference implementations retaining the per-configuration Access loops
// they replaced. Parity is exact: identical per-round ledgers (bitwise
// floats) and identical final placements over full simulation runs.

// naiveONCONF is the retained pre-sweep ONCONF: one Access evaluation per
// configuration per round, a fresh alive slice per switch.
type naiveONCONF struct {
	base
	rng      *rand.Rand
	configs  []core.Placement
	counters []float64
	cur      int
	budget   float64
}

func (a *naiveONCONF) Name() string { return "naive-ONCONF" }

func (a *naiveONCONF) Reset(env *sim.Env) error {
	k := env.Pool.MaxServers
	if k <= 0 {
		k = env.Graph.N()
	}
	a.configs = core.EnumeratePlacements(env.Graph.N(), k)
	a.reset(env, nil)
	a.counters = make([]float64, len(a.configs))
	a.cur = -1
	for i, c := range a.configs {
		if c.Equal(env.Start) {
			a.cur = i
			break
		}
	}
	if a.cur < 0 {
		return fmt.Errorf("naive onconf: start not enumerated")
	}
	a.budget = float64(k) * env.Costs.Create
	return nil
}

func (a *naiveONCONF) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	for i, c := range a.configs {
		ac := a.env.Eval.Access(c, d)
		a.counters[i] += ac.Total() + a.env.Costs.Run(c.Len(), 0)
	}
	if a.counters[a.cur] < a.budget {
		return core.Delta{}
	}
	alive := make([]int, 0, len(a.configs))
	for i, cnt := range a.counters {
		if cnt < a.budget {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		for i := range a.counters {
			a.counters[i] = 0
		}
		a.pool.AdvanceEpoch()
		return core.Delta{}
	}
	next := alive[a.rng.Intn(len(alive))]
	a.cur = next
	delta := a.apply(a.configs[next])
	a.pool.AdvanceEpoch()
	return delta
}

// naiveWFA is the retained pre-sweep WFA: per-config Access, [][]dist,
// full O(C²) work-function scan.
type naiveWFA struct {
	base
	configs []core.Placement
	work    []float64
	scratch []float64
	dist    [][]float64
	cur     int
}

func (a *naiveWFA) Name() string { return "naive-WFA" }

func (a *naiveWFA) Reset(env *sim.Env) error {
	k := env.Pool.MaxServers
	if k <= 0 {
		k = env.Graph.N()
	}
	a.reset(env, nil)
	a.configs = core.EnumeratePlacements(env.Graph.N(), k)
	a.work = make([]float64, len(a.configs))
	a.scratch = make([]float64, len(a.configs))
	a.dist = make([][]float64, len(a.configs))
	a.cur = -1
	for i, c := range a.configs {
		if c.Equal(env.Start) {
			a.cur = i
		}
	}
	if a.cur < 0 {
		return fmt.Errorf("naive wfa: start not enumerated")
	}
	for i, ci := range a.configs {
		a.dist[i] = make([]float64, len(a.configs))
		for j, cj := range a.configs {
			entering, leaving := ci.Diff(cj)
			a.dist[i][j] = env.Costs.Transition(len(entering), len(leaving))
		}
		entering, leaving := env.Start.Diff(ci)
		a.work[i] = env.Costs.Transition(len(entering), len(leaving))
	}
	return nil
}

func (a *naiveWFA) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	for i, c := range a.configs {
		ac := a.env.Eval.Access(c, d)
		task := math.Inf(1)
		if !ac.Infinite() {
			task = ac.Total() + a.env.Costs.Run(c.Len(), 0)
		}
		a.scratch[i] = a.work[i] + task
	}
	next, bestVal := a.cur, a.scratch[a.cur]
	for j := range a.configs {
		if v := a.scratch[j] + a.dist[a.cur][j]; v < bestVal {
			next, bestVal = j, v
		}
	}
	for j := range a.configs {
		best := math.Inf(1)
		for i := range a.configs {
			if c := a.scratch[i] + a.dist[i][j]; c < best {
				best = c
			}
		}
		a.work[j] = best
	}
	if next == a.cur {
		return core.Delta{}
	}
	a.cur = next
	return a.apply(a.configs[next])
}

// parityEnv builds a randomized small environment whose configuration
// space stays enumerable.
func parityEnv(t *testing.T, rng *rand.Rand, load cost.LoadFunc) (*sim.Env, *workload.Sequence) {
	t.Helper()
	n := 6 + rng.Intn(5)
	g, err := gen.ErdosRenyi(n, 0.4, gen.DefaultOptions(), rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, load, cost.AssignMinCost, cost.DefaultParams(),
		core.Params{QueueCap: 3, Expiry: 15, MaxServers: 2 + rng.Intn(2)})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: 4, Lambda: 4}, 60)
	if err != nil {
		t.Fatal(err)
	}
	return env, seq
}

func ledgersIdentical(t *testing.T, trial int, got, want *sim.Ledger) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("trial %d: %d rounds vs %d", trial, len(got.Rounds), len(want.Rounds))
	}
	for r := range got.Rounds {
		if got.Rounds[r] != want.Rounds[r] {
			t.Fatalf("trial %d round %d: %+v != naive %+v", trial, r, got.Rounds[r], want.Rounds[r])
		}
	}
	if got.Totals != want.Totals {
		t.Fatalf("trial %d: totals %+v != naive %+v", trial, got.Totals, want.Totals)
	}
}

func TestONCONFMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4021))
	loads := []cost.LoadFunc{cost.Linear{}, cost.Quadratic{}}
	for trial := 0; trial < 8; trial++ {
		env, seq := parityEnv(t, rng, loads[trial%len(loads)])
		seed := rng.Int63()
		a := NewONCONF(rand.New(rand.NewSource(seed)))
		got, err := sim.Run(env, a, seq)
		if err != nil {
			t.Fatal(err)
		}
		ref := &naiveONCONF{rng: rand.New(rand.NewSource(seed))}
		want, err := sim.Run(env, ref, seq)
		if err != nil {
			t.Fatal(err)
		}
		ledgersIdentical(t, trial, got, want)
		if !a.Placement().Equal(ref.Placement()) {
			t.Fatalf("trial %d: final placement %v != naive %v", trial, a.Placement(), ref.Placement())
		}
		for i := range a.counters {
			if a.counters[i] != ref.counters[i] {
				t.Fatalf("trial %d: counter %d = %v, naive %v", trial, i, a.counters[i], ref.counters[i])
			}
		}
	}
}

func TestWFAMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6733))
	loads := []cost.LoadFunc{cost.Linear{}, cost.Quadratic{}}
	for trial := 0; trial < 8; trial++ {
		env, seq := parityEnv(t, rng, loads[trial%len(loads)])
		a := NewWFA()
		got, err := sim.Run(env, a, seq)
		if err != nil {
			t.Fatal(err)
		}
		ref := &naiveWFA{}
		want, err := sim.Run(env, ref, seq)
		if err != nil {
			t.Fatal(err)
		}
		ledgersIdentical(t, trial, got, want)
		if !a.Placement().Equal(ref.Placement()) {
			t.Fatalf("trial %d: final placement %v != naive %v", trial, a.Placement(), ref.Placement())
		}
		for i := range a.work {
			if a.work[i] != ref.work[i] {
				t.Fatalf("trial %d: work[%d] = %v, naive %v", trial, i, a.work[i], ref.work[i])
			}
		}
	}
}

// TestSweepAlgorithmsParallelParity re-runs the ONCONF and WFA parity
// checks with several workers and a state space large enough to cross the
// parallel thresholds, so the chunked fan-out paths (broken parent links
// at chunk boundaries, concurrent work-function rows) are exercised and
// race-checked.
func TestSweepAlgorithmsParallelParity(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := gen.ErdosRenyi(13, 0.35, gen.DefaultOptions(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(),
		core.Params{QueueCap: 3, Expiry: 15, MaxServers: 4}) // 1092 states
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: 4, Lambda: 30}, 40)
	if err != nil {
		t.Fatal(err)
	}

	a := NewONCONF(rand.New(rand.NewSource(5)))
	got, err := sim.Run(env, a, seq)
	if err != nil {
		t.Fatal(err)
	}
	ref := &naiveONCONF{rng: rand.New(rand.NewSource(5))}
	want, err := sim.Run(env, ref, seq)
	if err != nil {
		t.Fatal(err)
	}
	ledgersIdentical(t, 0, got, want)

	w := NewWFA()
	got, err = sim.Run(env, w, seq)
	if err != nil {
		t.Fatal(err)
	}
	refW := &naiveWFA{}
	want, err = sim.Run(env, refW, seq)
	if err != nil {
		t.Fatal(err)
	}
	ledgersIdentical(t, 1, got, want)
	for i := range w.work {
		if w.work[i] != refW.work[i] {
			t.Fatalf("parallel work[%d] = %v, naive %v", i, w.work[i], refW.work[i])
		}
	}
}

// TestWFADisconnectedSubstrateParity pins WFA's infeasibility rule on a
// disconnected substrate (built by hand — sim.NewEnv rejects them), where
// an unreachable single request yields a *finite* latency sentinel
// (graph.Infinity = MaxFloat64): such configurations must be treated as
// infinite-task exactly like AccessCost.Infinite does, matching the
// retained reference.
func TestWFADisconnectedSubstrateParity(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1], 1, 1)
	}
	m := g.AllPairs()
	costs := cost.Params{Beta: 5, Create: 20, RunActive: 1, RunInactive: 0.2}
	env := &sim.Env{
		Graph:  g,
		Metric: m,
		Eval:   cost.NewEvaluator(g, m, cost.Linear{}, cost.AssignMinCost),
		Costs:  costs,
		Pool:   core.Params{Costs: costs, QueueCap: 3, Expiry: 15, MaxServers: 2},
		Start:  core.NewPlacement(1),
	}
	// Single-unit demand in component {0,1,2}: for a configuration living
	// entirely in {3,4,5} the latency is exactly 1·graph.Infinity — finite.
	demands := make([]cost.Demand, 50)
	for i := range demands {
		demands[i] = cost.DemandFromPairs(cost.NodeCount{Node: i % 3, Count: 1})
	}
	seq := workload.NewSequence("disconnected", demands)
	a := NewWFA()
	got, err := sim.Run(env, a, seq)
	if err != nil {
		t.Fatal(err)
	}
	ref := &naiveWFA{}
	want, err := sim.Run(env, ref, seq)
	if err != nil {
		t.Fatal(err)
	}
	ledgersIdentical(t, 0, got, want)
	for i := range a.work {
		if a.work[i] != ref.work[i] {
			t.Fatalf("work[%d] = %v, naive %v (config %v)", i, a.work[i], ref.work[i], a.configs[i])
		}
	}
}

// TestONCONFObserveAllocationFree pins the steady-state (no-switch)
// Observe path — one batched sweep plus the counter update — to zero
// allocations.
func TestONCONFObserveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(99))
	env, seq := parityEnv(t, rng, cost.Linear{})
	a := NewONCONF(rand.New(rand.NewSource(1)))
	if err := a.Reset(env); err != nil {
		t.Fatal(err)
	}
	a.budget = math.MaxFloat64 // never switch
	d := seq.Demand(0)
	access := env.Eval.Access(a.Placement(), d)
	a.Observe(0, d, access)
	if avg := testing.AllocsPerRun(100, func() { a.Observe(1, d, access) }); avg != 0 {
		t.Errorf("ONCONF.Observe (under budget): %v allocs/op, want 0", avg)
	}
}

// TestONCONFAliveScratchReused pins the pooled alive slice: on the
// budget-exceeded path the per-round allocation volume must stay far
// below the size of the alive index slice (which the pre-sweep code
// allocated fresh every switch round).
func TestONCONFAliveScratchReused(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	g, err := gen.ErdosRenyi(16, 0.4, gen.DefaultOptions(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(),
		core.Params{QueueCap: 3, Expiry: 15, MaxServers: 4}) // 2516 configs
	if err != nil {
		t.Fatal(err)
	}
	a := NewONCONF(rand.New(rand.NewSource(7)))
	if err := a.Reset(env); err != nil {
		t.Fatal(err)
	}
	d := cost.DemandFromList([]int{1, 5, 9, 13})
	access := env.Eval.Access(a.Placement(), d)
	aliveBytes := uintptr(len(a.configs)) * 8
	// Pinning the current configuration's counter at the budget forces the
	// switch path — and a full alive scan over ~all configurations — every
	// round. Warm up pools and the alive scratch first.
	for r := 0; r < 8; r++ {
		a.counters[a.cur] = a.budget
		a.Observe(r, d, access)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 64
	for r := 0; r < rounds; r++ {
		a.counters[a.cur] = a.budget
		a.Observe(8+r, d, access)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perOp > uint64(aliveBytes)/2 {
		t.Errorf("switching Observe allocates %d B/op; alive slice (%d B) is evidently not pooled",
			perOp, aliveBytes)
	}
}

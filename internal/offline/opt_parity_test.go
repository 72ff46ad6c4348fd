package offline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// naiveOPT is the reference dynamic program the kernel-based solver
// replaced: per-round map-based access memoisation and an O(states×masks)
// minimisation per round. It returns the DP objective and the chosen
// schedule.
func naiveOPT(env *sim.Env, seq *workload.Sequence, k int) (float64, []core.Vector, bool) {
	n := env.Graph.N()
	states := core.EnumerateVectors(n, k, 0)
	rounds := seq.Len()
	if rounds == 0 {
		return 0, nil, true
	}
	occOf := make([]uint64, len(states))
	actOf := make([]uint64, len(states))
	runOf := make([]float64, len(states))
	for i, st := range states {
		occOf[i] = st.OccupiedMask()
		actOf[i] = st.ActiveMask()
		runOf[i] = st.RunCost(env.Costs)
	}
	maskIndex := make(map[uint64]int)
	var masks []uint64
	maskOf := make([]int, len(states))
	for i, m := range occOf {
		idx, ok := maskIndex[m]
		if !ok {
			idx = len(masks)
			maskIndex[m] = idx
			masks = append(masks, m)
		}
		maskOf[i] = idx
	}
	placementOf := make(map[uint64]core.Placement)
	for i, st := range states {
		if _, ok := placementOf[actOf[i]]; !ok {
			placementOf[actOf[i]] = st.ActivePlacement()
		}
	}
	accessFor := func(t int, cache map[uint64]float64, active uint64) float64 {
		if v, ok := cache[active]; ok {
			return v
		}
		ac := env.Eval.Access(placementOf[active], seq.Demand(t))
		v := math.Inf(1)
		if !ac.Infinite() {
			v = ac.Total()
		}
		cache[active] = v
		return v
	}
	start := core.NewVector(n)
	for _, v := range env.Start {
		start[v] = core.StateActive
	}
	startOcc := start.OccupiedMask()

	prev := make([]float64, len(states))
	next := make([]float64, len(states))
	parent := make([][]int32, rounds)
	cache := make(map[uint64]float64)
	parent[0] = make([]int32, len(states))
	for i := range states {
		prev[i] = core.TransitionCostMasks(env.Costs, startOcc, occOf[i]) +
			runOf[i] + accessFor(0, cache, actOf[i])
		parent[0][i] = -1
	}
	bestByMask := make([]float64, len(masks))
	argByMask := make([]int32, len(masks))
	for t := 1; t < rounds; t++ {
		for mi := range bestByMask {
			bestByMask[mi] = math.Inf(1)
			argByMask[mi] = -1
		}
		for i := range states {
			mi := maskOf[i]
			if prev[i] < bestByMask[mi] {
				bestByMask[mi] = prev[i]
				argByMask[mi] = int32(i)
			}
		}
		cache = make(map[uint64]float64)
		parent[t] = make([]int32, len(states))
		for i := range states {
			best, arg := math.Inf(1), int32(-1)
			for mi, frm := range masks {
				if math.IsInf(bestByMask[mi], 1) {
					continue
				}
				c := bestByMask[mi] + core.TransitionCostMasks(env.Costs, frm, occOf[i])
				if c < best {
					best, arg = c, argByMask[mi]
				}
			}
			next[i] = best + runOf[i] + accessFor(t, cache, actOf[i])
			parent[t][i] = arg
		}
		prev, next = next, prev
	}
	bestFinal, argFinal := math.Inf(1), -1
	for i, c := range prev {
		if c < bestFinal {
			bestFinal, argFinal = c, i
		}
	}
	if argFinal < 0 {
		return 0, nil, false
	}
	schedule := make([]core.Vector, rounds)
	cur := int32(argFinal)
	for t := rounds - 1; t >= 0; t-- {
		schedule[t] = states[cur]
		cur = parent[t][cur]
	}
	return bestFinal, schedule, true
}

func randomOPTInstance(t *testing.T, rng *rand.Rand) (*sim.Env, *workload.Sequence, int) {
	t.Helper()
	n := 3 + rng.Intn(4)
	k := 1 + rng.Intn(n)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 0.5+2*rng.Float64(), 1)
	}
	if n > 2 && rng.Intn(2) == 0 {
		g.MustAddEdge(0, n-1, 0.5+2*rng.Float64(), 1) // close the ring
	}
	params := cost.DefaultParams()
	if rng.Intn(2) == 0 {
		params = cost.InvertedParams()
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost, params,
		core.Params{QueueCap: 3, Expiry: 20, MaxServers: k})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 4 + rng.Intn(20)
	demands := make([]cost.Demand, rounds)
	for t2 := range demands {
		list := make([]int, rng.Intn(6))
		for i := range list {
			list[i] = rng.Intn(n)
		}
		demands[t2] = cost.DemandFromList(list)
	}
	return env, workload.NewSequence("random", demands), k
}

// optParityInstance is one OPT input for the parity pins.
type optParityInstance struct {
	name string
	env  *sim.Env
	seq  *workload.Sequence
	k    int
}

// optParityInstances returns the random-weight instances, unit-weight line
// instances (equal-shape moves between many occupied sets tie exactly, and
// every third round is empty, where the all-empty state is optimal), one
// instance each with quadratic load and nearest-server routing, one on a
// disconnected substrate, and one line of 12 nodes at k=4 whose 794
// occupied sets cross the kernel's parallel threshold.
func optParityInstances(t *testing.T, seed int64, random int) []optParityInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []optParityInstance
	for trial := 0; trial < random; trial++ {
		env, seq, k := randomOPTInstance(t, rng)
		out = append(out, optParityInstance{fmt.Sprintf("random-%d", trial), env, seq, k})
	}
	unitParams := []cost.Params{
		cost.DefaultParams(),
		cost.InvertedParams(),
		{Beta: 1, Create: 2, RunActive: 1, RunInactive: 0.5},
	}
	for trial := 0; trial < 6; trial++ {
		n := 4 + trial%3
		k := 1 + rng.Intn(n)
		env := lineEnv(t, n, k, unitParams[trial%len(unitParams)])
		out = append(out, optParityInstance{fmt.Sprintf("unit-%d", trial), env, unitDemand(rng, n, 12), k})
	}
	for i, model := range []struct {
		load   cost.LoadFunc
		policy cost.Policy
	}{{cost.Quadratic{}, cost.AssignMinCost}, {cost.Linear{}, cost.AssignNearest}} {
		g := graph.New(5)
		for v := 0; v+1 < 5; v++ {
			g.MustAddEdge(v, v+1, 0.5+2*rng.Float64(), 1)
		}
		env, err := sim.NewEnv(g, model.load, model.policy, cost.DefaultParams(),
			core.Params{QueueCap: 3, Expiry: 20, MaxServers: 3})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, optParityInstance{fmt.Sprintf("load-policy-%d", i), env, unitDemand(rng, 5, 12), 3})
	}
	// Two components: a request the active servers cannot reach has the
	// finite graph.Infinity latency, which must still count as infeasible.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1], 1, 1)
	}
	m := g.AllPairs()
	costs := cost.Params{Beta: 5, Create: 20, RunActive: 1, RunInactive: 0.2}
	split := &sim.Env{
		Graph: g, Metric: m, Costs: costs,
		Eval:  cost.NewEvaluator(g, m, cost.Linear{}, cost.AssignMinCost),
		Pool:  core.Params{Costs: costs, QueueCap: 3, Expiry: 15, MaxServers: 2},
		Start: core.NewPlacement(2),
	}
	out = append(out, optParityInstance{"disconnected", split, unitDemand(rng, 6, 12), 2})
	env := lineEnv(t, 12, 4, cost.DefaultParams())
	out = append(out, optParityInstance{"line12-k4", env, unitDemand(rng, 12, 4), 4})
	return out
}

// unitDemand draws single requests at random nodes, leaving every third
// round empty.
func unitDemand(rng *rand.Rand, n, rounds int) *workload.Sequence {
	demands := make([]cost.Demand, rounds)
	for r := range demands {
		var list []int
		if r%3 != 2 {
			list = make([]int, 1+rng.Intn(3))
			for i := range list {
				list[i] = rng.Intn(n)
			}
		}
		demands[r] = cost.DemandFromList(list)
	}
	return workload.NewSequence("unit", demands)
}

// TestOPTMatchesNaiveDP pins the kernel-based solver to the reference
// dynamic program: the objective must be bit-identical and the chosen
// schedule the same configuration path.
func TestOPTMatchesNaiveDP(t *testing.T) {
	for _, in := range optParityInstances(t, 443, 25) {
		opt := NewOPT(in.seq)
		if err := opt.Reset(in.env); err != nil {
			t.Fatal(err)
		}
		want, wantSched, ok := naiveOPT(in.env, in.seq, in.k)
		if !ok {
			t.Fatalf("%s: naive DP found no schedule", in.name)
		}
		if opt.PlannedCost() != want {
			t.Fatalf("%s: planned = %v, naive = %v", in.name, opt.PlannedCost(), want)
		}
		got := opt.Schedule()
		if len(got) != len(wantSched) {
			t.Fatalf("%s: schedule length %d, naive %d", in.name, len(got), len(wantSched))
		}
		for t2 := range got {
			if got[t2].String() != wantSched[t2].String() {
				t.Fatalf("%s round %d: schedule %v, naive %v", in.name, t2, got[t2], wantSched[t2])
			}
		}
	}
}

// TestOPTAccessMatchesEvaluator pins the solver's per-round access sweep
// to Evaluator.Access for every state, bit for bit: the all-empty active
// set, unreachable requests (+Inf), quadratic load and nearest routing
// included.
func TestOPTAccessMatchesEvaluator(t *testing.T) {
	for _, in := range optParityInstances(t, 5, 3) {
		s, err := newOptSolver(in.env, in.seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < in.seq.Len(); r++ {
			s.fillAccess(r)
			for i, st := range s.states {
				ac := in.env.Eval.Access(st.ActivePlacement(), in.seq.Demand(r))
				want := math.Inf(1)
				if !ac.Infinite() {
					want = ac.Total()
				}
				if got := s.access[s.actIdx[i]]; got != want {
					t.Fatalf("%s round %d state %v: access %v, evaluator %v", in.name, r, st, got, want)
				}
			}
		}
	}
}

// TestOPTStepAllocationFree pins the per-round DP kernel to zero
// steady-state allocations (single-worker path; the parallel path only
// adds goroutine bookkeeping). Race instrumentation allocates inside the
// kernel, so the pin only holds without -race.
func TestOPTStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates in the step kernel")
	}
	env := lineEnv(t, 5, 3, cost.DefaultParams())
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 4, Lambda: 10}, 50)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newOptSolver(env, seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.solve(); err != nil { // warm the access-session pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { s.step(1) }); avg != 0 {
		t.Errorf("optSolver.step: %v allocs/op, want 0", avg)
	}
}

// TestOPTDeterministicAcrossWorkerCounts checks the solver returns the
// same objective and schedule regardless of parallel fan-out.
func TestOPTDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, in := range optParityInstances(t, 887, 10) {
		var ref *optSolver
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			s, err := newOptSolver(in.env, in.seq, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.solve(); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = s
				continue
			}
			if s.planned != ref.planned {
				t.Fatalf("%s: %d workers planned %v, 1 worker %v", in.name, w, s.planned, ref.planned)
			}
			for t2 := range s.scheduleOut {
				if s.scheduleOut[t2].String() != ref.scheduleOut[t2].String() {
					t.Fatalf("%s round %d: %d-worker schedule differs", in.name, t2, w)
				}
			}
		}
	}
}

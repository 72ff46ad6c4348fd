package online

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/sim"
)

// naiveBestResponse is the reference sweep the shape-priced, bound-pruned
// scan replaced: one placement materialisation and one pool
// prediction per candidate, visited moves → deactivations → additions.
func naiveBestResponse(env *sim.Env, pool *core.Pool, agg cost.Demand, rounds int, moves SearchMoves) core.Placement {
	cur := pool.Active()
	if len(cur) == 0 {
		return cur
	}
	sc := EpochScorer(env, cur, agg, rounds)
	defer sc.Release()
	occupied := make(map[int]bool, len(cur))
	for _, s := range cur {
		occupied[s] = true
	}
	run := func(target core.Placement) float64 {
		return float64(rounds) * env.Costs.Run(target.Len(), pool.PredictInactiveAfter(target))
	}
	best := cur
	bestScore := sc.Base() + run(cur)
	consider := func(target core.Placement, access float64) {
		score := access + pool.PredictSwitch(target).Total() + run(target)
		if score < bestScore {
			best, bestScore = target, score
		}
	}
	targets := moves.Targets
	if targets == nil {
		targets = make([]int, env.Graph.N())
		for v := range targets {
			targets[v] = v
		}
	}
	if moves.Move {
		for i, s := range cur {
			for _, v := range targets {
				if occupied[v] {
					continue
				}
				consider(cur.Moved(s, v), sc.Move(i, v))
			}
		}
	}
	if moves.Deactivate && len(cur) > 1 {
		for i, s := range cur {
			if access := sc.Remove(i); !math.IsInf(access, 1) {
				consider(cur.Without(s), access)
			}
		}
	}
	if moves.Add && (env.Pool.MaxServers <= 0 || len(cur) < env.Pool.MaxServers) {
		for _, v := range targets {
			if occupied[v] {
				continue
			}
			consider(cur.With(v), sc.Add(v))
		}
	}
	return best
}

// bestResponseCase draws one randomized best-response instance: a pool
// whose cache holds inactive servers accumulated through real switches, a
// demand, a cost model and a search-move subset with optional Targets and
// MaxServers caps. The bits of shape select
//
//	1:  integer latencies and strengths in {1, 2, 4}, so scores tie exactly
//	2:  two components, so unreachable access points overflow to +Inf
//	4:  a large instance: 90–159 nodes, 60–199 requests
//	8:  the inverted cost regime (β > c)
//	16: the quadratic load, searched through the linearised scorer
func bestResponseCase(tb testing.TB, seed int64, shape uint8) (*sim.Env, *core.Pool, cost.Demand, int, SearchMoves) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, demand, walk := 6+rng.Intn(30), 1+rng.Intn(50), 4
	if shape&4 != 0 {
		n, demand, walk = 90+rng.Intn(70), 60+rng.Intn(140), 10
	}
	latency := func() float64 { return 0.25 + 4*rng.Float64() }
	if shape&1 != 0 {
		latency = func() float64 { return float64(1 + rng.Intn(4)) }
	}
	// Nodes below split and from split on form separate components when
	// shape asks for two.
	split := n
	if shape&2 != 0 {
		split = 1 + rng.Intn(n-1)
	}
	comp := func(v int) (int, int) {
		if v < split {
			return 0, split
		}
		return split, n - split
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if lo, _ := comp(v); v > lo {
			g.MustAddEdge(lo+rng.Intn(v-lo), v, latency(), 1)
		}
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		u := rng.Intn(n)
		lo, size := comp(u)
		if v := lo + rng.Intn(size); u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, latency(), 1)
		}
	}
	for v := 0; v < n; v++ {
		if shape&1 != 0 {
			g.SetStrength(v, float64(int(1)<<rng.Intn(3)))
		} else {
			g.SetStrength(v, 0.25+3*rng.Float64())
		}
	}
	params := cost.DefaultParams()
	if shape&8 != 0 {
		params = cost.InvertedParams()
	}
	var load cost.LoadFunc = cost.Linear{}
	if shape&16 != 0 {
		load = cost.Quadratic{}
	}
	maxServers := 0
	if rng.Intn(5) == 0 {
		maxServers = 2 + rng.Intn(3)
	}
	m := g.AllPairs()
	pp := core.Params{QueueCap: rng.Intn(4), Expiry: 20, MaxServers: maxServers, Costs: params}
	env := &sim.Env{
		Graph:  g,
		Metric: m,
		Eval:   cost.NewEvaluator(g, m, load, cost.AssignMinCost),
		Costs:  params,
		Pool:   pp,
		Start:  core.NewPlacement(graph.CenterOf(m)),
	}
	pool := env.NewPool()
	pool.Bootstrap(env.Start)
	// Random walk of switches so the cache holds real inactive servers.
	for step := 0; step < walk; step++ {
		curLen := pool.NumActive()
		target := core.NewPlacement(rng.Intn(n))
		for target.Len() < curLen+rng.Intn(2) && target.Len() < n {
			target = target.With(rng.Intn(n))
		}
		if maxServers > 0 && target.Len() > maxServers {
			continue
		}
		if _, err := pool.SwitchTo(target); err != nil {
			tb.Fatal(err)
		}
	}
	list := make([]int, demand)
	for i := range list {
		list[i] = rng.Intn(n)
	}
	agg := cost.DemandFromList(list)
	rounds := 1 + rng.Intn(10)
	moves := SearchMoves{
		Move:       rng.Intn(4) != 0,
		Deactivate: rng.Intn(4) != 0,
		Add:        rng.Intn(4) != 0,
	}
	if rng.Intn(3) == 0 {
		moves.Targets = rng.Perm(n)[:1+rng.Intn(n)]
	}
	return env, pool, agg, rounds, moves
}

// checkBestResponse requires BestResponse to pick exactly the naive
// reference's target on one drawn instance.
func checkBestResponse(t *testing.T, seed int64, shape uint8) {
	env, pool, agg, rounds, moves := bestResponseCase(t, seed, shape)
	got := BestResponse(env, pool, agg, rounds, moves)
	want := naiveBestResponse(env, pool, agg, rounds, moves)
	if !got.Equal(want) {
		t.Fatalf("seed %d shape %#x: BestResponse = %v, naive = %v (moves %+v)",
			seed, shape, got, want, moves)
	}
}

// TestBestResponseMatchesNaiveReference runs the FuzzBestResponse
// generator over every shape, twice each.
func TestBestResponseMatchesNaiveReference(t *testing.T) {
	for trial := 0; trial < 64; trial++ {
		checkBestResponse(t, 557+int64(trial), uint8(trial%32))
	}
}

// FuzzBestResponse pins the bound-pruned BestResponse to
// naiveBestResponse, which scores every candidate: the chosen placement
// must be equal. See bestResponseCase for the shape bits.
func FuzzBestResponse(f *testing.F) {
	f.Fuzz(checkBestResponse)
}

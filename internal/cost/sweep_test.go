package cost

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// enumeratePlacementsDFS mirrors core.EnumeratePlacements (which cannot be
// imported here without a cycle): every non-empty sorted placement of at
// most maxServers nodes, parents before extensions.
func enumeratePlacementsDFS(n, maxServers int) [][]int {
	var out [][]int
	var cur []int
	var rec func(next int)
	rec = func(next int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == maxServers {
			return
		}
		for v := next; v < n; v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// naiveConfLoop is the retained reference the sweep replaces: one full
// Access evaluation per configuration.
func naiveConfLoop(e *Evaluator, configs [][]int, d Demand, out []float64) {
	for i, c := range configs {
		out[i] = e.Access(c, d).Total()
	}
}

// TestConfSweepMatchesNaive pins Sweep to the per-config Access loop with
// exact float equality, over separable and non-separable loads, both
// routing policies, DFS-ordered and shuffled (parent-less) spaces.
func TestConfSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	loads := []LoadFunc{Linear{}, Quadratic{}, Power{P: 1}, Power{P: 2.5}}
	policies := []Policy{AssignMinCost, AssignNearest}
	for trial := 0; trial < 40; trial++ {
		g, m, _, d := randomParityInstance(rng)
		n := g.N()
		k := 1 + rng.Intn(3)
		configs := enumeratePlacementsDFS(n, k)
		if trial%3 == 2 {
			// Shuffled order: parents are (mostly) unavailable and every
			// configuration takes the full-scan fallback.
			rng.Shuffle(len(configs), func(i, j int) {
				configs[i], configs[j] = configs[j], configs[i]
			})
		}
		load := loads[trial%len(loads)]
		policy := policies[trial%len(policies)]
		e := NewEvaluator(g, m, load, policy)
		sw := NewConfSweep(e, configs)
		got := make([]float64, len(configs))
		want := make([]float64, len(configs))
		sw.Sweep(d, got)
		naiveConfLoop(e, configs, d, want)
		for i := range configs {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s/%s, %d configs): config %d %v: sweep %v, naive %v",
					trial, load.Name(), policy, len(configs), i, configs[i], got[i], want[i])
			}
		}
		// Empty demand short-circuit.
		sw.Sweep(Demand{}, got)
		naiveConfLoop(e, configs, Demand{}, want)
		for i := range configs {
			if got[i] != want[i] {
				t.Fatalf("trial %d: empty demand config %d: sweep %v, naive %v",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestConfSweepWorkerCountIndependent pins that chunked fan-out (which
// breaks some parent links at chunk boundaries) returns the exact serial
// result.
func TestConfSweepWorkerCountIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	g, m, _, d := randomParityInstance(rng)
	configs := enumeratePlacementsDFS(g.N(), 3)
	e := NewEvaluator(g, m, Linear{}, AssignMinCost)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := make([]float64, len(configs))
	NewConfSweep(e, configs).Sweep(d, serial)

	runtime.GOMAXPROCS(4)
	sw := NewConfSweep(e, configs)
	got := make([]float64, len(configs))
	// Force the parallel path regardless of problem size by sweeping a
	// demand large enough, or simply exercising the kernel directly in
	// chunks of varying size, over the rows Sweep would pin.
	sw.rows, sw.pinNodes = pinPairs(m, nil, nil, d.Pairs())
	for chunks := 2; chunks <= 5; chunks++ {
		for i := range got {
			got[i] = 0
		}
		C := len(configs)
		step := (C + chunks - 1) / chunks
		for lo := 0; lo < C; lo += step {
			hi := lo + step
			if hi > C {
				hi = C
			}
			sw.separableRange(d, lo, hi, got)
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("chunks=%d: config %d: %v != serial %v", chunks, i, got[i], serial[i])
			}
		}
	}
	sw.Sweep(d, got)
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("parallel Sweep config %d: %v != serial %v", i, got[i], serial[i])
		}
	}
}

// TestConfSweepAllocationFree pins the steady-state Sweep to zero
// allocations (serial path; the goroutine fan-out of the parallel path
// necessarily allocates).
func TestConfSweepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(13))
	g, m, _, d := randomParityInstance(rng)
	configs := enumeratePlacementsDFS(g.N(), 3)
	out := make([]float64, len(configs))

	e := NewEvaluator(g, m, Linear{}, AssignMinCost)
	sw := NewConfSweep(e, configs)
	sw.Sweep(d, out)
	if avg := testing.AllocsPerRun(100, func() { sw.Sweep(d, out) }); avg != 0 {
		t.Errorf("separable Sweep: %v allocs/op, want 0", avg)
	}

	eg := NewEvaluator(g, m, Quadratic{}, AssignMinCost)
	swg := NewConfSweep(eg, configs)
	swg.Sweep(d, out) // warm the session pool
	if avg := testing.AllocsPerRun(100, func() { swg.Sweep(d, out) }); avg != 0 {
		t.Errorf("generic Sweep: %v allocs/op, want 0", avg)
	}
}

// TestHeapRouterMatchesNaiveGreedy drives the non-separable router with
// bulky access points (well past heapRouterMinUnits) and many servers, so
// the heap path is exercised, and pins it to the retained per-unit greedy
// reference with exact float equality.
func TestHeapRouterMatchesNaiveGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	loads := []LoadFunc{Quadratic{}, Power{P: 1.5}, Power{P: 3}}
	for trial := 0; trial < 30; trial++ {
		g, m, _, _ := randomParityInstance(rng)
		n := g.N()
		k := heapRouterMinServers + rng.Intn(n)
		if k > n {
			k = n
		}
		servers := append([]int(nil), rng.Perm(n)[:k]...)
		counts := make(map[int]int)
		for j := 1 + rng.Intn(6); j > 0; j-- {
			counts[rng.Intn(n)] += heapRouterMinUnits + rng.Intn(200)
		}
		// A couple of small pairs keeps the scan path covered too.
		counts[rng.Intn(n)] += 1 + rng.Intn(3)
		d := e2Demand(counts)
		load := loads[trial%len(loads)]
		e := NewEvaluator(g, m, load, AssignMinCost)
		got := e.Access(servers, d)
		want := naiveAccess(e, servers, d)
		if got != want {
			t.Fatalf("trial %d (%s, %d servers, %d requests): Access = %+v, naive = %+v",
				trial, load.Name(), len(servers), d.Total(), got, want)
		}
	}
}

func e2Demand(counts map[int]int) Demand { return DemandFromCounts(counts) }

// TestHeapRouterTieBreak pins the deterministic tie-break on a crafted
// instance where several servers are exactly equidistant: the heap must
// route to the lowest server index, like the scan.
func TestHeapRouterTieBreak(t *testing.T) {
	// Star substrate: every node at distance 1 from node 0, equal
	// strengths, so all servers are exactly tied for every unit.
	n := 12
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1, 1)
	}
	m := g.AllPairs()
	e := NewEvaluator(g, m, Quadratic{}, AssignMinCost)
	servers := make([]int, n-1)
	for i := range servers {
		servers[i] = i + 1 // all equidistant from node 0
	}
	d := DemandFromPairs(NodeCount{Node: 0, Count: 64})
	got := e.Access(servers, d)
	want := naiveAccess(e, servers, d)
	if got != want {
		t.Fatalf("tie-break: Access = %+v, naive = %+v", got, want)
	}
}

package cost

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
// routing policies, DFS-ordered and shuffled (parent-less) spaces, and
// configurations of more than 64 servers.
func TestConfSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	loads := []LoadFunc{Linear{}, Quadratic{}, Power{P: 1}, Power{P: 2.5}}
	policies := []Policy{AssignMinCost, AssignNearest}
	check := func(trial int, e *Evaluator, configs [][]int, d Demand) {
		t.Helper()
		sw := NewConfSweep(e, configs)
		got := make([]float64, len(configs))
		want := make([]float64, len(configs))
		sw.Sweep(d, got)
		naiveConfLoop(e, configs, d, want)
		for i := range configs {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s/%s, %d configs): config %d %v: sweep %v, naive %v",
					trial, e.load.Name(), e.policy, len(configs), i, configs[i], got[i], want[i])
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
		check(trial, NewEvaluator(g, m, loads[trial%len(loads)], policies[trial%len(policies)]), configs, d)
	}
	// Slots past 62 share one bit of the kernel's touched-slot mask: in
	// DFS order, the prefixes {0, …, l-1} of a 90-node line, then each
	// prefix's sibling {0, …, l-2, l}, under demand spread over the line.
	const n = 90
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 0.25+4*rng.Float64(), 1)
	}
	for v := 0; v < n; v++ {
		g.SetStrength(v, 0.25+3*rng.Float64())
	}
	var configs [][]int
	for l := 1; l <= n; l++ {
		configs = append(configs, firstNodes(l))
	}
	for l := n - 1; l >= 1; l-- {
		configs = append(configs, append(firstNodes(l-1), l))
	}
	list := make([]int, 300)
	for i := range list {
		list[i] = rng.Intn(n)
	}
	for trial := range 4 {
		check(40+trial, NewEvaluator(g, g.AllPairs(), loads[trial], policies[trial%2]), configs, DemandFromList(list))
	}
}

// firstNodes returns 0, 1, …, n-1.
func firstNodes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
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

// enumerateActiveSets lists the non-empty active sets of every state vector
// over n nodes with at most maxServers occupied (each occupied node active
// or inactive), in the order they first appear when the vectors are
// enumerated node by node — the order OPT hands its active sets to the
// sweep, in which many configurations precede their parents.
func enumerateActiveSets(n, maxServers int) [][]int {
	var out [][]int
	seen := map[string]bool{}
	var active []int
	var rec func(i, total int)
	rec = func(i, total int) {
		if i == n {
			if key := fmt.Sprint(active); len(active) > 0 && !seen[key] {
				seen[key] = true
				out = append(out, slices.Clone(active))
			}
			return
		}
		rec(i+1, total)
		if total < maxServers {
			rec(i+1, total+1) // inactive
			active = append(active, i)
			rec(i+1, total+1)
			active = active[:len(active)-1]
		}
	}
	rec(0, 0)
	return out
}

// fuzzSubstrate builds a random substrate of 2..13 nodes from rng. Some
// nodes start a new component instead of joining an earlier one, so
// distance rows can hold graph.Infinity. Half the substrates draw small
// integer latencies and strengths, so servers tie on effective distance
// and the first-slot tie-break is exercised.
func fuzzSubstrate(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(12)
	ties := rng.Intn(2) == 0
	draw := func(lo, span float64) float64 {
		if ties {
			return float64(1 + rng.Intn(int(span)))
		}
		return lo + span*rng.Float64()
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if rng.Intn(4) != 0 {
			g.MustAddEdge(rng.Intn(v), v, draw(0.25, 3), 1)
		}
	}
	for v := 0; v < n; v++ {
		g.SetStrength(v, draw(0.25, 2))
	}
	return g
}

// FuzzConfSweep pins the sweep to the per-configuration Access loop by
// exact float bits: totals from Sweep, latencies from SweepAccess, and the
// separable range kernel driven over random chunk splits, which cut
// through sibling runs and leave chunks whose first configurations lack a
// parent. shape picks the load model, the routing policy and the space's
// order (DFS, shuffled, or OPT's first appearance).
func FuzzConfSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, splits []byte) {
		rng := rand.New(rand.NewSource(seed))
		g := fuzzSubstrate(rng)
		n := g.N()
		load := []LoadFunc{Linear{}, Quadratic{}, Power{P: 1}, Power{P: 2}}[shape%4]
		policy := []Policy{AssignMinCost, AssignNearest}[shape>>2&1]
		k := 1 + rng.Intn(min(n, 4))
		var configs [][]int
		switch shape >> 3 % 3 {
		case 0:
			configs = enumeratePlacementsDFS(n, k)
		case 1:
			configs = enumeratePlacementsDFS(n, k)
			rng.Shuffle(len(configs), func(i, j int) { configs[i], configs[j] = configs[j], configs[i] })
		default:
			configs = enumerateActiveSets(n, k)
		}
		list := make([]int, 1+rng.Intn(30))
		for i := range list {
			list[i] = rng.Intn(n)
		}
		d := DemandFromList(list)
		e := NewEvaluator(g, g.AllPairs(), load, policy)
		sw := NewConfSweep(e, configs)
		C := len(configs)
		want := make([]AccessCost, C)
		for i, c := range configs {
			want[i] = e.Access(c, d)
		}
		check := func(how string, got, lat []float64) {
			t.Helper()
			for i := range configs {
				if math.Float64bits(got[i]) != math.Float64bits(want[i].Total()) {
					t.Fatalf("%s (%s/%s, n=%d k=%d, %d configs): config %d %v: total %v, Access %+v",
						how, load.Name(), policy, n, k, C, i, configs[i], got[i], want[i])
				}
				if lat != nil && math.Float64bits(lat[i]) != math.Float64bits(want[i].Latency) {
					t.Fatalf("%s (%s/%s, n=%d k=%d, %d configs): config %d %v: latency %v, Access %+v",
						how, load.Name(), policy, n, k, C, i, configs[i], lat[i], want[i])
				}
			}
		}
		got, lat := make([]float64, C), make([]float64, C)
		sw.Sweep(d, got)
		check("Sweep", got, nil)
		sw.SweepAccess(d, got, lat)
		check("SweepAccess", got, lat)
		if !sw.sep {
			return
		}
		cuts := []int{0, C}
		for _, b := range splits[:min(len(splits), 16)] {
			cuts = append(cuts, int(b)*C/256)
		}
		slices.Sort(cuts)
		clear(got)
		clear(lat)
		sw.rows, sw.pinNodes = pinPairs(e.m, sw.rows, sw.pinNodes, d.Pairs())
		sw.latOut = lat
		for c := 1; c < len(cuts); c++ {
			if cuts[c-1] < cuts[c] {
				sw.separableRange(d, cuts[c-1], cuts[c], got)
			}
		}
		sw.latOut = nil
		check(fmt.Sprintf("chunks %v", cuts), got, lat)
	})
}

// fakeLoad is a separable load model whose routing offset (the marginal
// load) is bad on nodes of strength 7.
type fakeLoad struct{ bad float64 }

func (fakeLoad) Name() string                        { return "fake" }
func (fakeLoad) Value(strength, eta float64) float64 { return eta / strength }
func (l fakeLoad) Marginal(strength, _ float64) float64 {
	if strength == 7 {
		return l.bad
	}
	return 1 / strength
}
func (fakeLoad) Separable() bool { return true }

// TestNewConfSweepRejectsSignedOffsets pins the kernel's precondition: a
// routing offset with its sign bit set (negative or −0) or NaN would break
// the bit-pattern comparison, so NewConfSweep refuses it, naming the node.
func TestNewConfSweepRejectsSignedOffsets(t *testing.T) {
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, 1, 1)
	}
	g.SetStrength(2, 7)
	configs := enumeratePlacementsDFS(4, 2)
	for _, bad := range []float64{-0.5, math.Copysign(0, -1), math.NaN()} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "node 2") {
					t.Errorf("offset %v: panic %q, want one naming node 2", bad, msg)
				}
			}()
			NewConfSweep(NewEvaluator(g, g.AllPairs(), fakeLoad{bad}, AssignMinCost), configs)
		}()
	}
	// +0 offsets (nearest routing) are fine.
	NewConfSweep(NewEvaluator(g, g.AllPairs(), fakeLoad{math.NaN()}, AssignNearest), configs)
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

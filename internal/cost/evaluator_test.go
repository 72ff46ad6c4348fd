package cost

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// lineGraph builds 0-1-2-...-n with unit latencies.
func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1, 1)
	}
	return g
}

func evalFor(g *graph.Graph, load LoadFunc, policy Policy) *Evaluator {
	return NewEvaluator(g, g.AllPairs(), load, policy)
}

func TestAccessEmptyDemand(t *testing.T) {
	e := evalFor(lineGraph(3), Linear{}, AssignMinCost)
	ac := e.Access(nil, Demand{})
	if ac.Total() != 0 {
		t.Fatalf("empty demand cost = %v, want 0", ac.Total())
	}
}

func TestAccessNoServers(t *testing.T) {
	e := evalFor(lineGraph(3), Linear{}, AssignMinCost)
	ac := e.Access(nil, DemandFromList([]int{0}))
	if !ac.Infinite() {
		t.Fatal("requests without servers must cost infinity")
	}
}

func TestAccessSingleServerLine(t *testing.T) {
	// Line 0-1-2-3-4, server at 2, one request at each end.
	e := evalFor(lineGraph(5), Linear{}, AssignMinCost)
	ac := e.Access([]int{2}, DemandFromList([]int{0, 4}))
	if ac.Latency != 4 {
		t.Fatalf("latency = %v, want 4", ac.Latency)
	}
	if ac.Load != 2 { // η=2, ω=1, linear
		t.Fatalf("load = %v, want 2", ac.Load)
	}
	if ac.Total() != 6 {
		t.Fatalf("total = %v, want 6", ac.Total())
	}
}

func TestAccessPicksNearestUnderLinearUniform(t *testing.T) {
	// Servers at both ends; requests at node 1 go to server 0 (dist 1 < 3).
	e := evalFor(lineGraph(5), Linear{}, AssignMinCost)
	ac := e.Access([]int{0, 4}, DemandFromList([]int{1}))
	if ac.Latency != 1 {
		t.Fatalf("latency = %v, want 1", ac.Latency)
	}
	if ac.Load != 1 {
		t.Fatalf("load = %v, want 1 (one busy, one idle server)", ac.Load)
	}
}

func TestAccessLoadAwareRouting(t *testing.T) {
	// Two adjacent servers: node 0 strong (ω=10), node 1 weak (ω=1), link
	// latency 0.5. With min-cost routing a request at node 1 pays
	// dist 0.5 + marginal 0.1 at the strong server vs dist 0 + marginal 1
	// at the weak server, so it crosses the link.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 0.5, 1)
	g.SetStrength(0, 10)
	e := evalFor(g, Linear{}, AssignMinCost)
	ac := e.Access([]int{0, 1}, DemandFromList([]int{1}))
	if ac.Latency != 0.5 {
		t.Fatalf("latency = %v, want 0.5 (request crosses to strong server)", ac.Latency)
	}
	if math.Abs(ac.Load-0.1) > 1e-12 {
		t.Fatalf("load = %v, want 0.1", ac.Load)
	}
	// Nearest routing stays local and pays the full weak-server load.
	eNear := evalFor(g, Linear{}, AssignNearest)
	acNear := eNear.Access([]int{0, 1}, DemandFromList([]int{1}))
	if acNear.Latency != 0 || acNear.Load != 1 {
		t.Fatalf("nearest: latency=%v load=%v, want 0/1", acNear.Latency, acNear.Load)
	}
}

func TestAccessQuadraticBalances(t *testing.T) {
	// Line of 3 nodes, servers at both ends, 4 requests in the middle.
	// Quadratic load makes piling all 4 on one server cost 1+16 while
	// balancing costs 4+8; the greedy router must balance 2/2.
	e := evalFor(lineGraph(3), Quadratic{}, AssignMinCost)
	ac := e.Access([]int{0, 2}, DemandFromList([]int{1, 1, 1, 1}))
	if ac.Latency != 4 {
		t.Fatalf("latency = %v, want 4", ac.Latency)
	}
	if ac.Load != 8 { // 2² + 2²
		t.Fatalf("load = %v, want 8 (balanced 2/2)", ac.Load)
	}
}

func TestAccessQuadraticNearestDoesNotBalance(t *testing.T) {
	// Same set-up under nearest routing: requests at node 0 all stay at
	// the local server.
	e := evalFor(lineGraph(3), Quadratic{}, AssignNearest)
	ac := e.Access([]int{0, 2}, DemandFromList([]int{0, 0, 0, 0}))
	if ac.Latency != 0 || ac.Load != 16 {
		t.Fatalf("latency=%v load=%v, want 0/16", ac.Latency, ac.Load)
	}
}

func TestSeparableMatchesGreedyForLinear(t *testing.T) {
	// The closed form and the unit-by-unit greedy router must agree for
	// separable loads on arbitrary instances.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		g := graph.New(n)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1, 0.5+rng.Float64()*4, 1)
		}
		for v := 0; v < n; v++ {
			g.SetStrength(v, 0.5+rng.Float64()*3)
		}
		m := g.AllPairs()
		fast := NewEvaluator(g, m, Linear{}, AssignMinCost)
		servers := []int{rng.Intn(n), rng.Intn(n)}
		if servers[0] == servers[1] {
			servers[1] = (servers[1] + 1) % n
		}
		list := make([]int, 1+rng.Intn(20))
		for i := range list {
			list[i] = rng.Intn(n)
		}
		d := DemandFromList(list)
		got := fast.Access(servers, d)
		want := (&Session{e: fast}).accessGreedy(servers, d)
		if math.Abs(got.Total()-want.Total()) > 1e-9 {
			t.Fatalf("trial %d: closed form %v != greedy %v", trial, got, want)
		}
	}
}

func TestBestAddition(t *testing.T) {
	// Line of 5, existing server at 0, all demand at node 4: the best
	// addition is node 4 itself.
	e := evalFor(lineGraph(5), Linear{}, AssignMinCost)
	v, ac, ok := e.BestAddition([]int{0}, DemandFromList([]int{4, 4, 4}))
	if !ok {
		t.Fatal("no addition found")
	}
	if v != 4 {
		t.Fatalf("best addition = %d, want 4", v)
	}
	if ac.Latency != 0 || ac.Load != 3 {
		t.Fatalf("cost = %+v, want latency 0, load 3", ac)
	}
}

func TestBestAdditionFirstServer(t *testing.T) {
	// Placing the very first server: demand at every node of a 3-line is
	// served strictly cheapest from the middle (latency 2 vs 3).
	e := evalFor(lineGraph(3), Linear{}, AssignMinCost)
	v, _, ok := e.BestAddition(nil, DemandFromList([]int{0, 1, 2}))
	if !ok || v != 1 {
		t.Fatalf("best first server = %d (ok=%v), want 1", v, ok)
	}
}

func TestBestAdditionNoFreeNode(t *testing.T) {
	e := evalFor(lineGraph(2), Linear{}, AssignMinCost)
	if _, _, ok := e.BestAddition([]int{0, 1}, DemandFromList([]int{0})); ok {
		t.Fatal("addition found on a full graph")
	}
}

func TestBestAdditionQuadratic(t *testing.T) {
	// Non-separable path: must still return the node minimising the exact
	// evaluated cost.
	e := evalFor(lineGraph(5), Quadratic{}, AssignMinCost)
	d := DemandFromList([]int{4, 4, 4, 4})
	v, _, ok := e.BestAddition([]int{0}, d)
	if !ok || v != 4 {
		t.Fatalf("best addition = %d (ok=%v), want 4", v, ok)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	g := lineGraph(3)
	m := g.AllPairs()
	e := NewEvaluator(g, m, Linear{}, AssignNearest)
	if e.Graph() != g || e.Metric() != graph.Metric(m) {
		t.Fatal("accessors do not round-trip")
	}
	if e.Load().Name() != "linear" || e.Policy() != AssignNearest {
		t.Fatal("load/policy accessors wrong")
	}
	if e.Policy().String() != "nearest" || AssignMinCost.String() != "min-cost" {
		t.Fatal("policy strings wrong")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy must still render")
	}
}

func TestNewEvaluatorSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewEvaluator(lineGraph(3), lineGraph(4).AllPairs(), Linear{}, AssignMinCost)
}

// Property: access cost is monotone — adding a server never increases it
// (under min-cost routing with linear load, where routing is per-request
// optimal).
func TestAccessMonotoneInServers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 3 + local.Intn(10)
		g := lineGraph(n)
		e := evalFor(g, Linear{}, AssignMinCost)
		list := make([]int, 1+local.Intn(15))
		for i := range list {
			list[i] = local.Intn(n)
		}
		d := DemandFromList(list)
		s1 := []int{local.Intn(n)}
		extra := local.Intn(n)
		if extra == s1[0] {
			extra = (extra + 1) % n
		}
		s2 := []int{s1[0], extra}
		return e.Access(s2, d).Total() <= e.Access(s1, d).Total()+1e-9
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vs []reflect.Value, _ *rand.Rand) {
			vs[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: total latency plus load is additive over demand splits for
// separable loads: Access(D1 ∪ D2) = Access(D1) + Access(D2).
func TestAccessAdditiveForSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		g := lineGraph(n)
		e := evalFor(g, Linear{}, AssignMinCost)
		servers := []int{0, n - 1}
		l1 := make([]int, 1+rng.Intn(10))
		l2 := make([]int, 1+rng.Intn(10))
		for i := range l1 {
			l1[i] = rng.Intn(n)
		}
		for i := range l2 {
			l2[i] = rng.Intn(n)
		}
		d1, d2 := DemandFromList(l1), DemandFromList(l2)
		sum := e.Access(servers, d1).Total() + e.Access(servers, d2).Total()
		joint := e.Access(servers, Aggregate(d1, d2)).Total()
		if math.Abs(sum-joint) > 1e-9 {
			t.Fatalf("trial %d: split %v != joint %v", trial, sum, joint)
		}
	}
}

package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file pins the optimised access-cost and scorer kernels to naive
// reference implementations (the straightforward per-element code the flat
// kernels replaced). Equality is exact — bit-identical floats — because
// the optimisations only restructure data access, never the arithmetic,
// and the experiment parity guarantee depends on that.

// naiveAccess is the reference Costacc evaluation: per-element Dist calls,
// fresh allocations, no row slices.
func naiveAccess(e *Evaluator, servers []int, d Demand) AccessCost {
	if d.Empty() {
		return AccessCost{}
	}
	if len(servers) == 0 {
		return InfiniteAccess()
	}
	if e.Separable() {
		off := make([]float64, len(servers))
		for i, s := range servers {
			off[i] = e.effMarginal(s)
		}
		eta := make([]float64, len(servers))
		var ac AccessCost
		for _, p := range d.Pairs() {
			best, bestCost := 0, math.MaxFloat64
			for i, s := range servers {
				if c := e.m.Dist(p.Node, s) + off[i]; c < bestCost {
					best, bestCost = i, c
				}
			}
			ac.Latency += float64(p.Count) * e.m.Dist(p.Node, servers[best])
			eta[best] += float64(p.Count)
		}
		for i, s := range servers {
			ac.Load += e.load.Value(e.g.Strength(s), eta[i])
		}
		return ac
	}
	eta := make([]float64, len(servers))
	var latency float64
	for _, p := range d.Pairs() {
		for u := 0; u < p.Count; u++ {
			best, bestCost := 0, math.MaxFloat64
			for i, s := range servers {
				c := e.m.Dist(p.Node, s) + e.load.Marginal(e.g.Strength(s), eta[i])
				if c < bestCost {
					best, bestCost = i, c
				}
			}
			latency += e.m.Dist(p.Node, servers[best])
			eta[best]++
		}
	}
	var load float64
	for i, s := range servers {
		load += e.load.Value(e.g.Strength(s), eta[i])
	}
	return AccessCost{Latency: latency, Load: load}
}

// naiveScorer is the reference candidate scorer: built per use, offsets
// through a closure, no arg2 bookkeeping.
type naiveScorer struct {
	e            *Evaluator
	servers      []int
	pairs        []NodeCount
	offsetAt     func(server int) float64
	best1, best2 []float64
	arg1         []int
	baseTotal    float64
}

func newNaiveScorer(e *Evaluator, servers []int, d Demand, offsetAt func(int) float64) *naiveScorer {
	s := &naiveScorer{
		e:        e,
		servers:  append([]int(nil), servers...),
		pairs:    d.Pairs(),
		offsetAt: offsetAt,
		best1:    make([]float64, d.Distinct()),
		best2:    make([]float64, d.Distinct()),
		arg1:     make([]int, d.Distinct()),
	}
	off := make([]float64, len(servers))
	for i, sv := range servers {
		off[i] = offsetAt(sv)
	}
	for pi, p := range s.pairs {
		b1, b2, a1 := math.MaxFloat64, math.MaxFloat64, -1
		for i, sv := range servers {
			c := e.m.Dist(p.Node, sv) + off[i]
			switch {
			case c < b1:
				b1, b2, a1 = c, b1, i
			case c < b2:
				b2 = c
			}
		}
		s.best1[pi], s.best2[pi], s.arg1[pi] = b1, b2, a1
		s.baseTotal += float64(p.Count) * b1
	}
	return s
}

func (s *naiveScorer) eff(node, server int) float64 {
	return s.e.m.Dist(node, server) + s.offsetAt(server)
}

func (s *naiveScorer) add(v int) float64 {
	total := 0.0
	for pi, p := range s.pairs {
		c := s.eff(p.Node, v)
		if b := s.best1[pi]; b < c {
			c = b
		}
		total += float64(p.Count) * c
	}
	return total
}

func (s *naiveScorer) remove(i int) float64 {
	if len(s.servers) == 1 {
		if len(s.pairs) == 0 {
			return 0
		}
		return math.Inf(1)
	}
	total := 0.0
	for pi, p := range s.pairs {
		c := s.best1[pi]
		if s.arg1[pi] == i {
			c = s.best2[pi]
		}
		total += float64(p.Count) * c
	}
	return total
}

func (s *naiveScorer) move(i, v int) float64 {
	total := 0.0
	for pi, p := range s.pairs {
		c := s.best1[pi]
		if s.arg1[pi] == i {
			c = s.best2[pi]
		}
		if cv := s.eff(p.Node, v); cv < c {
			c = cv
		}
		total += float64(p.Count) * c
	}
	return total
}

// randomInstance builds a random connected substrate with random strengths,
// a random placement, and a random demand.
func randomParityInstance(rng *rand.Rand) (*graph.Graph, *graph.Matrix, []int, Demand) {
	n := 5 + rng.Intn(25)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 0.25+4*rng.Float64(), 1)
	}
	for extra := rng.Intn(2 * n); extra > 0; extra-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 0.25+4*rng.Float64(), 1)
		}
	}
	for v := 0; v < n; v++ {
		g.SetStrength(v, 0.25+3*rng.Float64())
	}
	k := 1 + rng.Intn(n/2+1)
	perm := rng.Perm(n)
	servers := append([]int(nil), perm[:k]...)
	list := make([]int, 1+rng.Intn(40))
	for i := range list {
		list[i] = rng.Intn(n)
	}
	return g, g.AllPairs(), servers, DemandFromList(list)
}

// parityBackend is one metric backend the kernels are pinned on.
type parityBackend struct {
	name string
	m    graph.Metric
}

// parityBackends returns the exact backends every kernel must agree on
// bit for bit: the dense matrix, a sparse cache of two rows (fewer than
// the distinct access points of almost every instance, so pins evict and
// recompute), and the exact-mode landmark backend.
func parityBackends(g *graph.Graph, m *graph.Matrix) []parityBackend {
	return []parityBackend{
		{"dense", m},
		{"sparse:2", graph.NewSparse(g, 2)},
		{"landmark-exact", graph.NewLandmark(g, g.N())},
	}
}

func TestAccessMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	loads := []LoadFunc{Linear{}, Quadratic{}, Power{P: 1}, Power{P: 2.5}}
	policies := []Policy{AssignMinCost, AssignNearest}
	multiBlock := 0
	for trial := 0; trial < 60; trial++ {
		g, m, servers, d := randomParityInstance(rng)
		load := loads[trial%len(loads)]
		policy := policies[trial%len(policies)]
		want := naiveAccess(NewEvaluator(g, m, load, policy), servers, d)
		if d.Distinct() > pinBlock {
			multiBlock++
		}
		for _, b := range parityBackends(g, m) {
			e := NewEvaluator(g, b.m, load, policy)
			if got := e.Access(servers, d); got != want {
				t.Fatalf("trial %d (%s/%s, %s): Access = %+v, naive = %+v",
					trial, load.Name(), policy, b.name, got, want)
			}
		}
	}
	if multiBlock == 0 {
		t.Fatalf("no trial has more than %d distinct access points; the block loop is untested", pinBlock)
	}
}

func TestScorerMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 40; trial++ {
		g, m, servers, d := randomParityInstance(rng)
		hint := 1 + 5*rng.Float64()
		dense := NewEvaluator(g, m, Linear{}, AssignMinCost)
		ref := newNaiveScorer(dense, servers, d, func(v int) float64 {
			return dense.load.Marginal(dense.g.Strength(v), 0)
		})
		denseQ := NewEvaluator(g, m, Quadratic{}, AssignMinCost)
		refA := newNaiveScorer(denseQ, servers, d, func(v int) float64 {
			return denseQ.load.Marginal(denseQ.g.Strength(v), hint)
		})
		for _, b := range parityBackends(g, m) {
			e := NewEvaluator(g, b.m, Linear{}, AssignMinCost)
			sc, ok := NewScorer(e, servers, d)
			if !ok {
				t.Fatal("exact scorer unavailable for linear load")
			}
			comparePairScorers(t, fmt.Sprintf("trial %d (%s)", trial, b.name), sc, ref, g.N(), 3)
			sc.Release()

			// The linearised variant must agree with its reference too.
			eq := NewEvaluator(g, b.m, Quadratic{}, AssignMinCost)
			sa := NewScorerApprox(eq, servers, d, hint)
			comparePairScorers(t, fmt.Sprintf("trial %d (%s, approx)", trial, b.name), sa, refA, g.N(), 3)
			sa.Release()
		}
	}
}

// comparePairScorers compares every answer of sc with ref by exact float
// bits: Base, Add at every node, Remove of every server, and Move of
// every server to every moveStride-th node.
func comparePairScorers(t *testing.T, label string, sc *Scorer, ref *naiveScorer, n, moveStride int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(sc.Base(), ref.baseTotal) {
		t.Fatalf("%s: Base = %v, naive = %v", label, sc.Base(), ref.baseTotal)
	}
	adds := make([]float64, n)
	sc.Adds(nil, 0, n, adds)
	for v := 0; v < n; v++ {
		if got, want := sc.Add(v), ref.add(v); !same(got, want) {
			t.Fatalf("%s: Add(%d) = %v, naive = %v", label, v, got, want)
		}
		if !same(adds[v], ref.add(v)) {
			t.Fatalf("%s: Adds[%d] = %v, naive = %v", label, v, adds[v], ref.add(v))
		}
	}
	for i := range ref.servers {
		if got, want := sc.Remove(i), ref.remove(i); !same(got, want) {
			t.Fatalf("%s: Remove(%d) = %v, naive = %v", label, i, got, want)
		}
		for v := 0; v < n; v += moveStride {
			if got, want := sc.Move(i, v), ref.move(i, v); !same(got, want) {
				t.Fatalf("%s: Move(%d,%d) = %v, naive = %v", label, i, v, got, want)
			}
		}
	}
}

// FuzzScorer pins the scorer, which reads rows pinned once per build, to
// naiveScorer (per-element Dist calls) by exact float bits. The seed
// draws a random instance; backend picks the metric (dense, a two-row
// sparse cache, exact or approximate landmark) and, in bit 2, the load
// (linear through NewScorer, or quadratic linearised through
// NewScorerApprox); each byte of ops commits one ApplyAdd of a free node
// until every node hosts a server, after which every answer is compared
// with a naive scorer built from scratch on the committed servers.
func FuzzScorer(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, backend uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		g, m, servers, d := randomParityInstance(rng)
		n := g.N()
		metric := graph.Metric(m)
		switch backend % 4 {
		case 1:
			metric = graph.NewSparse(g, 2)
		case 2:
			metric = graph.NewLandmark(g, n)
		case 3:
			metric = graph.NewLandmark(g, 2)
		}
		var sc *Scorer
		var e *Evaluator
		hint := 0.0
		if backend&4 == 0 {
			e = NewEvaluator(g, metric, Linear{}, AssignMinCost)
			sc, _ = NewScorer(e, servers, d)
		} else {
			e = NewEvaluator(g, metric, Quadratic{}, AssignMinCost)
			hint = 1 + 5*rng.Float64()
			sc = NewScorerApprox(e, servers, d, hint)
		}
		defer sc.Release()
		offsetAt := func(v int) float64 { return e.load.Marginal(e.g.Strength(v), hint) }
		// free returns the k-th node (cyclically) hosting no server.
		free := func(k int) int {
			var nodes []int
			for v := 0; v < n; v++ {
				if !slices.Contains(sc.Servers(), v) {
					nodes = append(nodes, v)
				}
			}
			return nodes[k%len(nodes)]
		}
		comparePairScorers(t, "build", sc, newNaiveScorer(e, sc.Servers(), d, offsetAt), n, 1)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for step, op := range ops {
			if len(sc.Servers()) == n {
				break
			}
			sc.ApplyAdd(free(int(op)))
			comparePairScorers(t, fmt.Sprintf("after op %d (%#x)", step, op), sc, newNaiveScorer(e, sc.Servers(), d, offsetAt), n, 1)
		}
	})
}

// TestScorerIncrementalCommits drives a random sequence of ApplyAdd
// commits and checks after each one that the incrementally maintained
// scorer is indistinguishable from a scorer built from scratch on the
// same server list.
func TestScorerIncrementalCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for trial := 0; trial < 25; trial++ {
		g, m, servers, d := randomParityInstance(rng)
		opSeed := rng.Int63()
		for _, b := range parityBackends(g, m) {
			e := NewEvaluator(g, b.m, Linear{}, AssignMinCost)
			checkIncrementalCommits(t, fmt.Sprintf("trial %d (%s)", trial, b.name), rand.New(rand.NewSource(opSeed)), e, servers, d)
		}
	}
}

// checkIncrementalCommits drives one random commit sequence on e's
// backend, comparing the incrementally maintained scorer after every
// commit with a fresh build on the same servers.
func checkIncrementalCommits(t *testing.T, label string, rng *rand.Rand, e *Evaluator, servers []int, d Demand) {
	t.Helper()
	n := e.Graph().N()
	sc, ok := NewScorer(e, servers, d)
	if !ok {
		t.Fatal("exact scorer unavailable")
	}
	occupied := func(v int) bool {
		for _, s := range sc.Servers() {
			if s == v {
				return true
			}
		}
		return false
	}
	for step := 0; step < 30 && len(sc.Servers()) < n; step++ {
		v := rng.Intn(n)
		for occupied(v) {
			v = rng.Intn(n)
		}
		sc.ApplyAdd(v)
		fresh, ok := NewScorer(e, sc.Servers(), d)
		if !ok {
			t.Fatal("fresh scorer unavailable")
		}
		if sc.Base() != fresh.Base() {
			t.Fatalf("%s step %d: Base = %v, fresh = %v",
				label, step, sc.Base(), fresh.Base())
		}
		for v := 0; v < n; v += 2 {
			if sc.Add(v) != fresh.Add(v) {
				t.Fatalf("%s step %d: Add(%d) = %v, fresh = %v",
					label, step, v, sc.Add(v), fresh.Add(v))
			}
		}
		for i := range sc.Servers() {
			if sc.Remove(i) != fresh.Remove(i) {
				t.Fatalf("%s step %d: Remove(%d) = %v, fresh = %v",
					label, step, i, sc.Remove(i), fresh.Remove(i))
			}
			v := rng.Intn(n)
			if sc.Move(i, v) != fresh.Move(i, v) {
				t.Fatalf("%s step %d: Move(%d,%d) = %v, fresh = %v",
					label, step, i, v, sc.Move(i, v), fresh.Move(i, v))
			}
		}
		fresh.Release()
	}
	sc.Release()
}

// Allocation regressions: the hot kernels must be allocation-free in
// steady state (after the internal pools are warm). Race instrumentation
// makes sync.Pool drop entries at random, so the pin only holds without
// -race.
func TestHotPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	g, m, servers, d := randomParityInstance(rng)
	e := NewEvaluator(g, m, Linear{}, AssignMinCost)
	eg := NewEvaluator(g, m, Quadratic{}, AssignMinCost)

	e.Access(servers, d) // warm the session pool
	if avg := testing.AllocsPerRun(200, func() { e.Access(servers, d) }); avg != 0 {
		t.Errorf("Access (separable): %v allocs/op, want 0", avg)
	}
	eg.Access(servers, d)
	if avg := testing.AllocsPerRun(200, func() { eg.Access(servers, d) }); avg != 0 {
		t.Errorf("Access (greedy): %v allocs/op, want 0", avg)
	}

	sc, ok := NewScorer(e, servers, d)
	if !ok {
		t.Fatal("no scorer")
	}
	if avg := testing.AllocsPerRun(200, func() { sc.Move(0, 1) }); avg != 0 {
		t.Errorf("Scorer.Move: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sc.Add(2) }); avg != 0 {
		t.Errorf("Scorer.Add: %v allocs/op, want 0", avg)
	}
	adds, targets := make([]float64, g.N()), []int{2, 0, 2, 1}
	if avg := testing.AllocsPerRun(200, func() { sc.Adds(nil, 0, g.N(), adds) }); avg != 0 {
		t.Errorf("Scorer.Adds (every node): %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sc.Adds(targets, 1, 4, adds) }); avg != 0 {
		t.Errorf("Scorer.Adds (targets): %v allocs/op, want 0", avg)
	}
	occ := make([]bool, g.N())
	if avg := testing.AllocsPerRun(200, func() { sc.BestAdd(occ) }); avg != 0 {
		t.Errorf("Scorer.BestAdd: %v allocs/op, want 0", avg)
	}
	sc.Release()

	// A warm sparse backend (its cache holds every access point) serves
	// pins without allocating, so Access and the pinned scorer stay
	// allocation-free on it too.
	sp := graph.NewSparse(g, g.N())
	for _, ev := range []*Evaluator{NewEvaluator(g, sp, Linear{}, AssignMinCost), NewEvaluator(g, sp, Quadratic{}, AssignMinCost)} {
		ev.Access(servers, d)
		if avg := testing.AllocsPerRun(200, func() { ev.Access(servers, d) }); avg != 0 {
			t.Errorf("Access (%s, warm sparse): %v allocs/op, want 0", ev.Load().Name(), avg)
		}
	}
	ss, _ := NewScorer(NewEvaluator(g, sp, Linear{}, AssignMinCost), servers, d)
	if avg := testing.AllocsPerRun(200, func() { ss.Add(2) }); avg != 0 {
		t.Errorf("Scorer.Add (warm sparse): %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { ss.Move(0, 1) }); avg != 0 {
		t.Errorf("Scorer.Move (warm sparse): %v allocs/op, want 0", avg)
	}
	ss.Release()

	// Steady-state construction through the pool.
	for i := 0; i < 3; i++ {
		s2, _ := NewScorer(e, servers, d)
		s2.Release()
	}
	if avg := testing.AllocsPerRun(200, func() {
		s2, _ := NewScorer(e, servers, d)
		s2.Release()
	}); avg != 0 {
		t.Errorf("NewScorer+Release: %v allocs/op, want 0", avg)
	}
}

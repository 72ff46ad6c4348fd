package cost

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// randomInstance builds a random connected graph, servers and demand.
func randomInstance(rng *rand.Rand) (*Evaluator, []int, Demand) {
	n := 4 + rng.Intn(12)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 0.5+rng.Float64()*5, 1)
	}
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if rng.Float64() < 0.2 {
				g.MustAddEdge(u, v, 0.5+rng.Float64()*5, 1)
			}
		}
	}
	for v := 0; v < n; v++ {
		g.SetStrength(v, 0.5+rng.Float64()*3)
	}
	e := NewEvaluator(g, g.AllPairs(), Linear{}, AssignMinCost)
	k := 1 + rng.Intn(3)
	perm := rng.Perm(n)
	servers := append([]int(nil), perm[:k]...)
	list := make([]int, 1+rng.Intn(25))
	for i := range list {
		list[i] = rng.Intn(n)
	}
	return e, servers, DemandFromList(list)
}

func sorted(s []int) []int {
	out := append([]int(nil), s...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// Property: every scorer answer equals a full evaluation of the modified
// placement (the scorer exists purely as an optimisation).
func TestScorerMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const eps = 1e-9
	for trial := 0; trial < 60; trial++ {
		e, servers, d := randomInstance(rng)
		sc, ok := NewScorer(e, servers, d)
		if !ok {
			t.Fatal("scorer must apply to linear/min-cost")
		}
		if got, want := sc.Base(), e.Access(servers, d).Total(); math.Abs(got-want) > eps {
			t.Fatalf("trial %d: Base %v != Access %v", trial, got, want)
		}
		n := e.Graph().N()
		inServers := map[int]bool{}
		for _, s := range servers {
			inServers[s] = true
		}
		// Add.
		for v := 0; v < n; v++ {
			if inServers[v] {
				continue
			}
			want := e.Access(append(sorted(servers), v), d).Total()
			if got := sc.Add(v); math.Abs(got-want) > eps {
				t.Fatalf("trial %d: Add(%d) %v != %v", trial, v, got, want)
			}
		}
		// Remove (only when another server remains).
		if len(servers) > 1 {
			for i := range servers {
				rest := make([]int, 0, len(servers)-1)
				for j, s := range servers {
					if j != i {
						rest = append(rest, s)
					}
				}
				want := e.Access(rest, d).Total()
				if got := sc.Remove(i); math.Abs(got-want) > eps {
					t.Fatalf("trial %d: Remove(%d) %v != %v", trial, i, got, want)
				}
			}
		}
		// Move.
		for i := range servers {
			for v := 0; v < n; v++ {
				if inServers[v] {
					continue
				}
				moved := make([]int, 0, len(servers))
				for j, s := range servers {
					if j != i {
						moved = append(moved, s)
					}
				}
				moved = append(moved, v)
				want := e.Access(moved, d).Total()
				if got := sc.Move(i, v); math.Abs(got-want) > eps {
					t.Fatalf("trial %d: Move(%d,%d) %v != %v", trial, i, v, got, want)
				}
			}
		}
	}
}

func TestScorerRemoveLastServer(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1, 1)
	e := NewEvaluator(g, g.AllPairs(), Linear{}, AssignMinCost)
	sc, ok := NewScorer(e, []int{0}, DemandFromList([]int{1}))
	if !ok {
		t.Fatal("scorer must build")
	}
	if !math.IsInf(sc.Remove(0), 1) {
		t.Fatal("removing the only server with demand must cost infinity")
	}
	scEmpty, _ := NewScorer(e, []int{0}, Demand{})
	if scEmpty.Remove(0) != 0 {
		t.Fatal("removing the only server without demand must cost zero")
	}
}

func TestNewScorerRejectsNonSeparable(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1, 1)
	e := NewEvaluator(g, g.AllPairs(), Quadratic{}, AssignMinCost)
	if _, ok := NewScorer(e, []int{0}, Demand{}); ok {
		t.Fatal("scorer accepted quadratic load")
	}
	eNear := NewEvaluator(g, g.AllPairs(), Linear{}, AssignNearest)
	if _, ok := NewScorer(eNear, []int{0}, Demand{}); ok {
		t.Fatal("scorer accepted nearest routing")
	}
	if _, ok := NewScorer(e, nil, Demand{}); ok {
		t.Fatal("scorer accepted empty placement")
	}
}

func TestNewScorerApproxPanicsOnEmpty(t *testing.T) {
	g := graph.New(1)
	e := NewEvaluator(g, g.AllPairs(), Quadratic{}, AssignMinCost)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty placement")
		}
	}()
	NewScorerApprox(e, nil, Demand{}, 0)
}

func TestNewScorerApproxCoincidesWithExactForLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		e, servers, d := randomInstance(rng)
		exact, _ := NewScorer(e, servers, d)
		approx := NewScorerApprox(e, servers, d, 123.0) // hint irrelevant for linear
		if math.Abs(exact.Base()-approx.Base()) > 1e-9 {
			t.Fatalf("trial %d: approx base %v != exact %v", trial, approx.Base(), exact.Base())
		}
		for v := 0; v < e.Graph().N(); v++ {
			if math.Abs(exact.Add(v)-approx.Add(v)) > 1e-9 {
				t.Fatalf("trial %d: Add(%d) differs", trial, v)
			}
		}
	}
}

func TestNewScorerApproxOrdersQuadraticCandidates(t *testing.T) {
	// With all demand at node 4 and a server at 0, the approximation must
	// still rank node 4 as the best addition.
	g := graph.New(5)
	for v := 0; v+1 < 5; v++ {
		g.MustAddEdge(v, v+1, 1, 1)
	}
	e := NewEvaluator(g, g.AllPairs(), Quadratic{}, AssignMinCost)
	d := DemandFromList([]int{4, 4, 4})
	sc := NewScorerApprox(e, []int{0}, d, 1.5)
	best, bestScore := -1, math.Inf(1)
	for v := 1; v < 5; v++ {
		if s := sc.Add(v); s < bestScore {
			best, bestScore = v, s
		}
	}
	if best != 4 {
		t.Fatalf("approx scorer ranked %d best, want 4", best)
	}
}

// countingMetric counts the calls the cost kernels make into a metric.
type countingMetric struct {
	graph.Metric
	rows, dists, pins, pinned int
}

func (c *countingMetric) Row(u int) []float64 {
	c.rows++
	return c.Metric.Row(u)
}

func (c *countingMetric) Dist(u, v int) float64 {
	c.dists++
	return c.Metric.Dist(u, v)
}

func (c *countingMetric) Pin(dst [][]float64, nodes []int) [][]float64 {
	c.pins++
	c.pinned += len(nodes)
	return c.Metric.Pin(dst, nodes)
}

// TestScorerPinsOnce: a scorer reads the metric once per build — one Pin
// of every distinct access point — and never again, whatever it answers
// or commits; Access pins one block of access points at a time. A Row or
// Dist call per pair per candidate is what made the best-response
// algorithms unusable on the landmark backend.
func TestScorerPinsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, m, servers, d := randomParityInstance(rng)
	for d.Distinct() <= pinBlock {
		g, m, servers, d = randomParityInstance(rng)
	}
	cm := &countingMetric{Metric: m}
	e := NewEvaluator(g, cm, Linear{}, AssignMinCost)
	n := g.N()

	sc, ok := NewScorer(e, servers, d)
	if !ok {
		t.Fatal("exact scorer unavailable for linear load")
	}
	for v := 0; v < n; v++ {
		sc.Add(v)
		for i := range sc.Servers() {
			sc.Move(i, v)
		}
	}
	for i := range sc.Servers() {
		sc.Remove(i)
	}
	free := func() int {
		for v := 0; v < n; v++ {
			if !slices.Contains(sc.Servers(), v) {
				return v
			}
		}
		return -1
	}
	if v := free(); v >= 0 {
		sc.ApplyAdd(v)
	}
	sc.Release()
	if cm.rows != 0 || cm.dists != 0 || cm.pins != 1 || cm.pinned != d.Distinct() {
		t.Fatalf("scorer made %d Row, %d Dist and %d Pin calls of %d nodes; want 0, 0 and 1 of %d",
			cm.rows, cm.dists, cm.pins, cm.pinned, d.Distinct())
	}

	for _, ev := range []*Evaluator{e, NewEvaluator(g, cm, Quadratic{}, AssignMinCost)} {
		*cm = countingMetric{Metric: m}
		ev.Access(servers, d)
		blocks := (d.Distinct() + pinBlock - 1) / pinBlock
		if cm.rows != 0 || cm.dists != 0 || cm.pins != blocks || cm.pinned != d.Distinct() {
			t.Fatalf("Access (%s) made %d Row, %d Dist and %d Pin calls of %d nodes; want 0, 0 and %d of %d",
				ev.Load().Name(), cm.rows, cm.dists, cm.pins, cm.pinned, blocks, d.Distinct())
		}
	}
}

// TestScorerAddsMatchesAdd pins the batch addition kernel to Add by exact
// bits: every node and random target lists (repeats included) over random
// [lo, hi) windows written into the matching window of a larger slice, on integer latencies and strengths (exact ties), on
// two components (unreachable access points overflow to +Inf), and through
// the linearised scorer. BestAdd must pick the first free node of minimal
// Add, as the per-node scan does.
func TestScorerAddsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	infs := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		integer, split := trial%2 == 1, n
		if trial%3 == 2 {
			split = 1 + rng.Intn(n-1)
		}
		latency := func() float64 { return 0.25 + 4*rng.Float64() }
		if integer {
			latency = func() float64 { return float64(1 + rng.Intn(3)) }
		}
		g := graph.New(n)
		for v := 1; v < n; v++ {
			if v != split {
				lo := 0
				if v > split {
					lo = split
				}
				g.MustAddEdge(lo+rng.Intn(v-lo), v, latency(), 1)
			}
		}
		for v := 0; v < n; v++ {
			if integer {
				g.SetStrength(v, float64(int(1)<<rng.Intn(3)))
			} else {
				g.SetStrength(v, 0.25+3*rng.Float64())
			}
		}
		servers := rng.Perm(n)[:1+rng.Intn(n/2+1)]
		list := make([]int, 1+rng.Intn(40))
		for i := range list {
			list[i] = rng.Intn(n)
		}
		d := DemandFromList(list)
		var sc *Scorer
		if trial%4 == 3 {
			sc = NewScorerApprox(NewEvaluator(g, g.AllPairs(), Quadratic{}, AssignMinCost), servers, d, 1+5*rng.Float64())
		} else {
			sc, _ = NewScorer(NewEvaluator(g, g.AllPairs(), Linear{}, AssignMinCost), servers, d)
		}
		targets := make([]int, rng.Intn(2*n))
		for j := range targets {
			targets[j] = rng.Intn(n)
		}
		for _, tg := range [][]int{nil, targets} {
			nt := n
			if tg != nil {
				nt = len(tg)
			}
			lo := rng.Intn(nt + 1)
			hi := lo + rng.Intn(nt-lo+1)
			dst := make([]float64, nt)
			for j := range dst {
				dst[j] = math.NaN() // outside [lo, hi) must stay untouched
			}
			sc.Adds(tg, lo, hi, dst[lo:hi])
			for j := range dst {
				v := j
				if tg != nil {
					v = tg[j]
				}
				if j < lo || j >= hi {
					if !math.IsNaN(dst[j]) {
						t.Fatalf("trial %d: Adds wrote dst[%d] outside [%d, %d)", trial, j, lo, hi)
					}
					continue
				}
				if want := sc.Add(v); !same(dst[j], want) {
					t.Fatalf("trial %d: Adds[%d] (node %d) = %v, Add = %v", trial, j, v, dst[j], want)
				}
				if math.IsInf(dst[j], 1) {
					infs++
				}
			}
		}
		occ := make([]bool, n)
		for _, v := range servers {
			occ[v] = true
		}
		want, wantOK := -1, false
		for v := 0; v < n; v++ {
			if !occ[v] && (!wantOK || sc.Add(v) < sc.Add(want)) {
				want, wantOK = v, true
			}
		}
		if got, ok := sc.BestAdd(occ); got != want || ok != wantOK {
			t.Fatalf("trial %d: BestAdd = %d, %v; per-node scan = %d, %v", trial, got, ok, want, wantOK)
		}
		sc.Release()
	}
	if infs == 0 {
		t.Fatal("no +Inf addition price; the disconnected draws do not reach the overflow")
	}
}

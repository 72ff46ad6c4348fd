package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAllPairsMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(20, 0.2, rng)
	m := g.AllPairs()
	for src := 0; src < g.N(); src++ {
		dist := g.ShortestFrom(src)
		for v := range dist {
			if m.Dist(src, v) != dist[v] {
				t.Fatalf("matrix dist(%d,%d) = %v, Dijkstra = %v", src, v, m.Dist(src, v), dist[v])
			}
		}
	}
}

func TestMatrixEmpty(t *testing.T) {
	m := New(0).AllPairs()
	if m.N() != 0 {
		t.Fatalf("N() = %d", m.N())
	}
	if c := CenterOf(m); c != -1 {
		t.Fatalf("CenterOf = %d, want -1", c)
	}
}

// naiveCenter is the reference center scan: one Dijkstra per node, the
// largest latency of each row (Infinity when a node is unreachable) as
// its eccentricity, ties toward the smaller node id.
func naiveCenter(g *Graph) int {
	best, bestEcc := -1, Infinity
	for v := 0; v < g.N(); v++ {
		ecc := 0.0
		for _, d := range g.ShortestFrom(v) {
			ecc = math.Max(ecc, d)
		}
		if best == -1 || ecc < bestEcc {
			best, bestEcc = v, ecc
		}
	}
	return best
}

func TestMatrixCenterMatchesGraphCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(12, 0.3, rng)
		if gc, mc := naiveCenter(g), CenterOf(g.AllPairs()); gc != mc {
			t.Fatalf("trial %d: reference center %d != CenterOf(matrix) %d", trial, gc, mc)
		}
	}
}

// randomConnected builds a random graph guaranteed connected by a spanning
// path plus random chords.
func randomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 0.5+rng.Float64()*9.5, 1)
	}
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v, 0.5+rng.Float64()*9.5, 1)
			}
		}
	}
	return g
}

// Property: all-pairs distances form a metric on connected graphs —
// non-negative, zero on the diagonal, symmetric, triangle inequality.
func TestMatrixMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 3 + local.Intn(12)
		g := randomConnected(n, 0.25, local)
		m := g.AllPairs()
		// Runs from opposite endpoints may sum the same path in different
		// orders, so symmetry and the triangle inequality hold only up to
		// floating-point tolerance.
		const eps = 1e-9
		for u := 0; u < n; u++ {
			if m.Dist(u, u) != 0 {
				return false
			}
			for v := 0; v < n; v++ {
				if m.Dist(u, v) < 0 || math.Abs(m.Dist(u, v)-m.Dist(v, u)) > eps {
					return false
				}
				for w := 0; w < n; w++ {
					if m.Dist(u, w) > m.Dist(u, v)+m.Dist(v, w)+eps {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(vs []reflect.Value, _ *rand.Rand) {
			vs[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the shortest-path latency never exceeds any single edge's
// latency between its endpoints.
func TestMatrixBoundedByEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(10, 0.3, rng)
		m := g.AllPairs()
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				if m.Dist(u, e.To) > e.Latency {
					t.Fatalf("dist(%d,%d)=%v exceeds direct edge latency %v", u, e.To, m.Dist(u, e.To), e.Latency)
				}
			}
		}
	}
}

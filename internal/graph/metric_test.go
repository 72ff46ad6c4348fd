package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// chordedRing builds a deterministic ring with extra random chords and
// non-uniform latencies — enough path diversity that Dijkstra tie-breaks
// and float summation order matter, which is what the bit-parity tests
// are about.
func chordedRing(n, chords int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 0.5+rng.Float64()*9.5, 1)
	}
	for c := 0; c < chords; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.5+rng.Float64()*9.5, 1)
		c++
	}
	return g
}

// twoIslands builds a graph of two disconnected components, so distance
// rows contain Infinity entries.
func twoIslands() *Graph {
	g := New(7)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 2, 1)
	g.MustAddEdge(0, 2, 2.5, 1)
	g.MustAddEdge(3, 4, 1, 1)
	g.MustAddEdge(4, 5, 1.5, 1)
	g.MustAddEdge(5, 6, 3, 1)
	return g
}

// assertBitIdentical compares every pair under both metrics as exact
// float bits, via both Row and Dist.
func assertBitIdentical(t *testing.T, want, got Metric) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N: %d vs %d", want.N(), got.N())
	}
	n := want.N()
	for u := 0; u < n; u++ {
		wr, gr := want.Row(u), got.Row(u)
		for v := 0; v < n; v++ {
			if math.Float64bits(wr[v]) != math.Float64bits(gr[v]) {
				t.Fatalf("Row(%d)[%d]: %v vs %v (bits differ)", u, v, wr[v], gr[v])
			}
			if math.Float64bits(want.Dist(u, v)) != math.Float64bits(got.Dist(u, v)) {
				t.Fatalf("Dist(%d,%d): %v vs %v (bits differ)", u, v, want.Dist(u, v), got.Dist(u, v))
			}
		}
	}
}

// TestSparseBitIdenticalToDense pins the core exactness claim: every
// distance the sparse backend serves carries the exact float bits of the
// dense matrix, including with a row cache far smaller than the graph
// (every query path — hit, miss, evicted-and-recomputed — must agree).
func TestSparseBitIdenticalToDense(t *testing.T) {
	g := chordedRing(40, 30, 3)
	assertBitIdentical(t, g.AllPairs(), NewSparse(g, 5))
}

// TestSparseDisconnectedInfinity: unreachable pairs are Infinity under
// both backends, and reachable pairs within each island still match.
func TestSparseDisconnectedInfinity(t *testing.T) {
	g := twoIslands()
	dense := g.AllPairs()
	sparse := NewSparse(g, 3)
	assertBitIdentical(t, dense, sparse)
	if d := sparse.Dist(0, 5); d != Infinity {
		t.Fatalf("Dist across islands = %v, want Infinity", d)
	}
	if d := sparse.Dist(3, 6); d == Infinity {
		t.Fatalf("Dist within an island = Infinity, want finite (got %v)", d)
	}
}

// TestSparseLRUEviction: the resident set is bounded by the capacity, a
// cache hit serves the identical slice (no recompute), and a row borrowed
// before its eviction keeps its contents afterwards — the aliasing rule
// the Metric contract promises.
func TestSparseLRUEviction(t *testing.T) {
	g := chordedRing(24, 10, 4)
	s := NewSparse(g, 4)

	row0 := s.Row(0)
	borrowed := append([]float64(nil), row0...)
	//repcheck:allow-rowborrow this test pins the backend aliasing guarantee: a cache hit must serve the identical slice
	if again := s.Row(0); &again[0] != &row0[0] {
		t.Fatal("cache hit recomputed the row instead of serving the cached slice")
	}

	// Touch more sources than the cache holds; row 0 must fall out.
	for u := 1; u < 10; u++ {
		s.Row(u)
		if got := s.CachedRows(); got > 4 {
			t.Fatalf("CachedRows = %d after %d sources, capacity is 4", got, u+1)
		}
	}
	for i, v := range borrowed {
		if math.Float64bits(row0[i]) != math.Float64bits(v) {
			t.Fatalf("borrowed row mutated after eviction at index %d: %v vs %v", i, row0[i], v)
		}
	}
	// The evicted source recomputes to the same bits.
	fresh := s.Row(0)
	if &fresh[0] == &row0[0] {
		t.Fatal("row 0 still cached after 9 newer sources in a 4-row cache")
	}
	for i := range fresh {
		if math.Float64bits(fresh[i]) != math.Float64bits(borrowed[i]) {
			t.Fatalf("recomputed row differs at index %d", i)
		}
	}
}

// TestSparseRowOutOfRangePanics: an out-of-range source panics with a
// message naming it and n on every call — a repeated call must not block
// on a cache entry the first one left unready — and leaves the cache as
// it was.
func TestSparseRowOutOfRangePanics(t *testing.T) {
	s := NewSparse(line(1, 1), 4)
	s.Row(0)
	before := s.CachedRows()
	for _, u := range []int{5, 5, -1} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			s.Row(u)
		}()
		select {
		case r := <-done:
			msg := fmt.Sprint(r)
			if r == nil || !strings.Contains(msg, fmt.Sprintf("source %d", u)) || !strings.Contains(msg, "[0,3)") {
				t.Fatalf("Row(%d) recovered %q, want a panic naming the source and n", u, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Row(%d) blocked", u)
		}
	}
	if got := s.CachedRows(); got != before {
		t.Fatalf("CachedRows = %d after out-of-range calls, want %d", got, before)
	}
}

// TestSparseRowPanicUnpublishes: when the Dijkstra itself panics (forced
// here by a corrupt cached adjacency), the row's cache entry leaves the
// map and the LRU, so the next call recomputes instead of waiting on it.
func TestSparseRowPanicUnpublishes(t *testing.T) {
	g := line(1, 1)
	s := NewSparse(g, 4)
	s.Row(0)
	g.csr.Store(&adjacency{version: g.Version()})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Row(1) over a corrupt adjacency did not panic")
			}
		}()
		s.Row(1)
	}()
	if got := s.CachedRows(); got != 1 || len(s.lru) != 1 || s.lru[0] != 0 {
		t.Fatalf("after the panic: %d cached rows, LRU %v; want only row 0", got, s.lru)
	}
	g.csr.Store(nil)
	if d := s.Dist(1, 2); d != 1 {
		t.Fatalf("Dist(1,2) after recovery = %v, want 1", d)
	}
}

// TestSparseLRUKeepsHotRows: re-touching a source refreshes its LRU
// position, so the hot row survives a pass over capRows-1 other sources.
func TestSparseLRUKeepsHotRows(t *testing.T) {
	g := chordedRing(16, 6, 5)
	s := NewSparse(g, 3)
	hot := s.Row(0)
	for round := 0; round < 4; round++ {
		for u := 1; u <= 2; u++ {
			s.Row(u)
		}
		//repcheck:allow-rowborrow this test pins LRU retention by slice identity across intervening Row calls
		if got := s.Row(0); &got[0] != &hot[0] {
			t.Fatalf("round %d: hot row was evicted despite being re-touched", round)
		}
	}
}

// TestSparseConcurrentAccess hammers one small-capacity Sparse from many
// goroutines so hits, misses, evictions, and the singleflight publish
// race all interleave; run under -race this is the satellite's eviction
// check, and every returned value must still be dense-exact.
func TestSparseConcurrentAccess(t *testing.T) {
	// The reference matrix comes from a twin graph, so the sparse
	// backend's first rows race to build g's flat adjacency.
	g := chordedRing(32, 16, 6)
	dense := chordedRing(32, 16, 6).AllPairs()
	s := NewSparse(g, 4)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				u, v := rng.Intn(32), rng.Intn(32)
				if math.Float64bits(s.Dist(u, v)) != math.Float64bits(dense.Dist(u, v)) {
					select {
					case errs <- "concurrent Dist diverged from dense":
					default:
					}
					return
				}
				row := s.Row(u)
				if math.Float64bits(row[v]) != math.Float64bits(dense.Dist(u, v)) {
					select {
					case errs <- "concurrent Row diverged from dense":
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if got := s.CachedRows(); got > 4 {
		t.Fatalf("CachedRows = %d after concurrent load, capacity is 4", got)
	}
}

// TestLandmarkUpperBound: the landmark estimate is an upper bound on the
// true distance (up to float rounding of the two summed halves), zero on
// the diagonal, and exact from a landmark itself (the landmark lies on
// the path, so the triangle bound is tight).
func TestLandmarkUpperBound(t *testing.T) {
	g := chordedRing(30, 12, 7)
	dense := g.AllPairs()
	l := NewLandmark(g, 4)
	if l.Exact() {
		t.Fatal("k=4 < n=30 must not be exact mode")
	}
	marks := l.Landmarks()
	if len(marks) != 4 {
		t.Fatalf("got %d landmarks, want 4", len(marks))
	}
	if marks[0] != 0 {
		t.Fatalf("farthest-point sweep must start at node 0, got %d", marks[0])
	}
	const slack = 1e-9
	for u := 0; u < 30; u++ {
		row := l.Row(u)
		for v := 0; v < 30; v++ {
			truth := dense.Dist(u, v)
			est := l.Dist(u, v)
			//repcheck:allow-rowborrow Landmark.Row allocates per call (see its doc); this pins Dist/Row agreement bit for bit
			if math.Float64bits(est) != math.Float64bits(row[v]) {
				t.Fatalf("Dist(%d,%d)=%v disagrees with Row value %v", u, v, est, row[v])
			}
			if u == v && est != 0 {
				t.Fatalf("Dist(%d,%d) = %v, want 0", u, v, est)
			}
			if est < truth-slack*truth {
				t.Fatalf("landmark bound %v below true distance %v for (%d,%d)", est, truth, u, v)
			}
		}
	}
	for _, L := range marks {
		for v := 0; v < 30; v++ {
			truth, est := dense.Dist(L, v), l.Dist(L, v)
			if math.Abs(est-truth) > slack*(1+truth) {
				t.Fatalf("Dist from landmark %d to %d = %v, want exact %v", L, v, est, truth)
			}
		}
	}
}

// TestLandmarkExactMode: k >= n delegates to the sparse backend and is
// bit-identical to dense.
func TestLandmarkExactMode(t *testing.T) {
	g := chordedRing(12, 5, 8)
	l := NewLandmark(g, 12)
	if !l.Exact() {
		t.Fatal("k = n must be exact mode")
	}
	if l.Landmarks() != nil {
		t.Fatal("exact mode must report no landmark set")
	}
	assertBitIdentical(t, g.AllPairs(), l)
}

// TestLandmarkDisconnected: bounds across islands are Infinity, within an
// island finite.
func TestLandmarkDisconnected(t *testing.T) {
	g := twoIslands()
	l := NewLandmark(g, 3)
	if d := l.Dist(0, 4); d != Infinity {
		t.Fatalf("Dist across islands = %v, want Infinity", d)
	}
	if len(l.Landmarks()) == 0 {
		t.Fatal("no landmarks selected")
	}
}

// TestCenterOfParity: CenterOf over any exact backend picks the node the
// dense matrix picks, including on a disconnected graph (where every
// eccentricity is Infinity and the tie breaks to node 0).
func TestCenterOfParity(t *testing.T) {
	graphs := map[string]*Graph{
		"chorded":      chordedRing(25, 10, 9),
		"disconnected": twoIslands(),
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := graphs[name]
		dense := g.AllPairs()
		want := dense.Center()
		if got := CenterOf(dense); got != want {
			t.Fatalf("%s: CenterOf(dense) = %d, Matrix.Center = %d", name, got, want)
		}
		if got := CenterOf(NewSparse(g, 3)); got != want {
			t.Fatalf("%s: CenterOf(sparse) = %d, want %d", name, got, want)
		}
		if got := CenterOf(NewLandmark(g, g.N())); got != want {
			t.Fatalf("%s: CenterOf(landmark-exact) = %d, want %d", name, got, want)
		}
	}
	if got := CenterOf(New(0).AllPairs()); got != -1 {
		t.Fatalf("CenterOf(empty) = %d, want -1", got)
	}
}

// TestNewMetricSpecs pins the spec grammar of the -metric flag.
func TestNewMetricSpecs(t *testing.T) {
	g := chordedRing(10, 3, 10)
	good := []struct {
		spec  string
		check func(m Metric) bool
	}{
		{"", func(m Metric) bool { _, ok := m.(*Matrix); return ok }},
		{"dense", func(m Metric) bool { _, ok := m.(*Matrix); return ok }},
		{"sparse", func(m Metric) bool { s, ok := m.(*Sparse); return ok && s.capRows == DefaultSparseRows }},
		{"sparse:7", func(m Metric) bool { s, ok := m.(*Sparse); return ok && s.capRows == 7 }},
		{"landmark", func(m Metric) bool { l, ok := m.(*Landmark); return ok && l.k == DefaultLandmarks }},
		{"landmark:3", func(m Metric) bool { l, ok := m.(*Landmark); return ok && l.k == 3 && !l.Exact() }},
	}
	for _, tc := range good {
		m, err := NewMetric(g, tc.spec)
		if err != nil {
			t.Fatalf("NewMetric(%q): %v", tc.spec, err)
		}
		if !tc.check(m) {
			t.Fatalf("NewMetric(%q) built the wrong backend: %T", tc.spec, m)
		}
	}
	for _, spec := range []string{"dense:4", "sparse:0", "sparse:-1", "sparse:x", "landmark:0", "landmark:huge", "bogus", "sparse:"} {
		if _, err := NewMetric(g, spec); err == nil {
			t.Fatalf("NewMetric(%q) accepted an invalid spec", spec)
		}
	}
}

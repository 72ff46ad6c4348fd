package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// cache hit serves the identical slice (no recompute), and a row taken
// before its eviction keeps its contents afterwards — the aliasing rule
// the Metric contract promises.
func TestSparseLRUEviction(t *testing.T) {
	g := chordedRing(24, 10, 4)
	s := NewSparse(g, 4)

	row0 := s.Row(0)
	kept := append([]float64(nil), row0...)
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
	for i, v := range kept {
		if math.Float64bits(row0[i]) != math.Float64bits(v) {
			t.Fatalf("kept row mutated after eviction at index %d: %v vs %v", i, row0[i], v)
		}
	}
	// The evicted source recomputes to the same bits.
	fresh := s.Row(0)
	if &fresh[0] == &row0[0] {
		t.Fatal("row 0 still cached after 9 newer sources in a 4-row cache")
	}
	for i := range fresh {
		if math.Float64bits(fresh[i]) != math.Float64bits(kept[i]) {
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
	// A Pin batch is range-checked before any entry is published, so its
	// valid nodes (1 and 2 are not cached) leave no unready entry either.
	for _, tc := range []struct {
		bad   int
		batch []int // nil: call Row(bad)
	}{{5, nil}, {5, nil}, {-1, nil}, {5, []int{1, 5}}, {-1, []int{2, 1, -1}}, {3, []int{0, 3, 0}}} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			if tc.batch == nil {
				s.Row(tc.bad)
			} else {
				s.Pin(nil, tc.batch)
			}
		}()
		select {
		case r := <-done:
			msg := fmt.Sprint(r)
			if r == nil || !strings.Contains(msg, fmt.Sprintf("source %d", tc.bad)) || !strings.Contains(msg, "[0,3)") {
				t.Fatalf("Row/Pin %d %v recovered %q, want a panic naming the source and n", tc.bad, tc.batch, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Row/Pin %d %v blocked", tc.bad, tc.batch)
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
	// Row, a one-miss Pin (computed inline) and a three-miss Pin (computed
	// by concurrent workers) must all unpublish every failed entry and
	// re-raise the panic in the caller.
	for _, batch := range [][]int{nil, {1}, {0, 1, 2, 3, 1}} {
		g := line(1, 1, 1)
		s := NewSparse(g, 4)
		s.Row(0)
		g.csr.Store(&adjacency{version: g.Version()})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("batch %v over a corrupt adjacency did not panic", batch)
				}
			}()
			if batch == nil {
				s.Row(1)
			} else {
				s.Pin(nil, batch)
			}
		}()
		if got := s.CachedRows(); got != 1 || len(s.lru) != 1 || s.lru[0] != 0 {
			t.Fatalf("batch %v, after the panic: %d cached rows, LRU %v; want only row 0", batch, got, s.lru)
		}
		g.csr.Store(nil)
		if d := s.Dist(1, 3); d != 2 {
			t.Fatalf("batch %v: Dist(1,3) after recovery = %v, want 2", batch, d)
		}
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
			var pins [][]float64
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
				// Overlapping pins, some wider than the cache and with
				// repeated nodes, race the Row and Dist calls above.
				nodes := []int{u, rng.Intn(32), v, rng.Intn(32), u, rng.Intn(32)}[:2+rng.Intn(5)]
				pins = s.Pin(pins[:0], nodes)
				for k, src := range nodes {
					if math.Float64bits(pins[k][v]) != math.Float64bits(dense.Dist(src, v)) {
						select {
						case errs <- "concurrent Pin diverged from dense":
						default:
						}
						return
					}
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

// TestPinMatchesRow: every backend's Pin appends, in order, rows
// bit-identical to its Row, for batches with repeated nodes and batches
// wider than a sparse cache, and a sparse batch computes each repeated
// node once.
func TestPinMatchesRow(t *testing.T) {
	g := chordedRing(30, 12, 11)
	backends := []struct {
		name string
		m    Metric
	}{
		{"dense", g.AllPairs()},
		{"sparse", NewSparse(g, 4)},
		{"landmark", NewLandmark(g, 5)},
		{"landmark-exact", NewLandmark(g, 30)},
	}
	batches := [][]int{
		{},
		{7},
		{3, 3, 3},
		{0, 5, 9, 5, 0, 29},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 11, 12, 13, 1},
	}
	for _, b := range backends {
		for _, nodes := range batches {
			prefix := [][]float64{nil}
			pins := b.m.Pin(prefix, nodes)
			if len(pins) != 1+len(nodes) || pins[0] != nil {
				t.Fatalf("%s: Pin(%v) returned %d rows, want the dst prefix and %d more", b.name, nodes, len(pins), len(nodes))
			}
			for k, u := range nodes {
				row := b.m.Row(u)
				for v := range row {
					if math.Float64bits(pins[1+k][v]) != math.Float64bits(row[v]) {
						t.Fatalf("%s: Pin(%v)[%d][%d] = %v, Row(%d) has %v", b.name, nodes, k, v, pins[1+k][v], u, row[v])
					}
				}
			}
		}
	}

	// A wider-than-cache sparse batch with repeats: each repeat shares
	// the first occurrence's row, and the cache stays within capacity.
	s := NewSparse(g, 3)
	nodes := []int{4, 8, 15, 16, 23, 4, 42 % 30, 8}
	pins := s.Pin(nil, nodes)
	if &pins[0][0] != &pins[5][0] || &pins[1][0] != &pins[7][0] {
		t.Fatal("a node repeated in a sparse batch was computed twice")
	}
	if got := s.CachedRows(); got > 3 {
		t.Fatalf("CachedRows = %d after a wide pin, capacity is 3", got)
	}
}

// TestRowIsSingleNodePin pins the invariant the one-mode Metric contract
// rests on: Row(u) and Pin(nil, []int{u})[0] agree bit for bit, and on
// the dense and sparse backends they are the same memory, in every
// sparse cache state — so no backend can recycle a Row without breaking
// a Pin.
func TestRowIsSingleNodePin(t *testing.T) {
	const n = 20
	g := chordedRing(n, 8, 13)
	dense := g.AllPairs()
	cases := []struct {
		name   string
		metric func(u int) Metric // a backend in the named state for source u
		shared bool
	}{
		{"dense", func(int) Metric { return dense }, true},
		{"sparse-cold", func(int) Metric { return NewSparse(g, 4) }, true},
		{"sparse-warm", func(u int) Metric {
			s := NewSparse(g, 4)
			s.Pin(nil, []int{u})
			return s
		}, true},
		{"sparse-evicted", func(u int) Metric {
			s := NewSparse(g, 2)
			s.Pin(nil, []int{u, (u + 1) % n, (u + 2) % n})
			return s
		}, true},
		{"landmark", func(int) Metric { return NewLandmark(g, 4) }, false},
		{"landmark-exact", func(int) Metric { return NewLandmark(g, n) }, false},
	}
	for _, c := range cases {
		for u := 0; u < n; u++ {
			m := c.metric(u)
			row := m.Row(u)
			pin := m.Pin(nil, []int{u})[0]
			if len(row) != n || len(pin) != n {
				t.Fatalf("%s: Row(%d) has %d entries, Pin %d, want %d", c.name, u, len(row), len(pin), n)
			}
			for v := range row {
				if math.Float64bits(row[v]) != math.Float64bits(pin[v]) {
					t.Fatalf("%s: Row(%d)[%d] = %v, Pin has %v", c.name, u, v, row[v], pin[v])
				}
			}
			if c.shared && &row[0] != &pin[0] {
				t.Fatalf("%s: Row(%d) and Pin of the same node do not share storage", c.name, u)
			}
		}
	}
}

// TestPinAllocationFree: pinning rows a backend already holds does not
// allocate once dst has capacity.
func TestPinAllocationFree(t *testing.T) {
	g := chordedRing(40, 20, 12)
	nodes := []int{3, 9, 3, 27}
	for _, m := range []Metric{g.AllPairs(), NewSparse(g, 8)} {
		dst := m.Pin(nil, nodes)
		if avg := testing.AllocsPerRun(200, func() { dst = m.Pin(dst[:0], nodes) }); avg != 0 {
			t.Errorf("%T.Pin of warm rows: %v allocs/op, want 0", m, avg)
		}
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
		want := naiveCenter(g)
		if got := CenterOf(g.AllPairs()); got != want {
			t.Fatalf("%s: CenterOf(dense) = %d, reference = %d", name, got, want)
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

// FuzzNewMetric builds a backend from an arbitrary -metric spec over a
// small graph decoded from the input (see fuzzGraph). NewMetric must
// either return an error or a backend whose every Row, Dist and Pin agrees
// with the reference Dijkstra: bit for bit for dense, sparse and
// exact-mode landmark, and for approximate landmark never below it beyond
// float rounding. A landmark half is summed from the landmark, so the
// float sums of the two halves associate a path's latencies differently
// than the row from u does; each of the at most n+1 roundings costs a
// relative 2⁻⁵³, in either sum. Building the backend must not allocate
// in proportion to the spec's numeric argument.
func FuzzNewMetric(f *testing.F) {
	ring := []byte{5, 0, 1, 0, 1, 2, 0, 2, 3, 130, 3, 4, 0, 4, 5, 255, 5, 0, 0, 1, 4, 0}
	for _, spec := range []string{"", "dense", "sparse", "sparse:2", "landmark", "landmark:2", "landmark:6", "sparse:0", "landmark:99999999999", "dense:1", "bogus"} {
		f.Add(spec, ring)
	}
	f.Fuzz(func(t *testing.T, spec string, data []byte) {
		g := fuzzGraph(data, nil)
		n := g.N()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewMetric(g, spec)
		if err != nil {
			if m != nil {
				t.Fatalf("NewMetric(%q) returned a backend with error %v", spec, err)
			}
			return
		}
		m.Row(0) // builds the matrix or the landmark table
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("NewMetric(%q) on %d nodes allocated %d bytes", spec, n, grew)
		}
		exact := true
		if l, ok := m.(*Landmark); ok {
			exact = l.Exact()
		}
		slack := float64(n+1) * 0x1p-52
		nodes := make([]int, n)
		for u := range nodes {
			nodes[u] = (u * 5) % n
		}
		pinned := m.Pin(nil, nodes)
		for u := 0; u < n; u++ {
			want := naiveShortestFrom(g, u)
			row := append([]float64(nil), m.Row(u)...)
			for v, w := range want {
				got := m.Dist(u, v)
				if math.Float64bits(got) != math.Float64bits(row[v]) {
					t.Fatalf("%q: Dist(%d,%d) = %v, Row value %v", spec, u, v, got, row[v])
				}
				switch {
				case exact && math.Float64bits(got) != math.Float64bits(w):
					t.Fatalf("%q: Dist(%d,%d) = %v, reference %v", spec, u, v, got, w)
				case !exact && got < w-slack*w:
					t.Fatalf("%q: landmark Dist(%d,%d) = %v below the reference %v", spec, u, v, got, w)
				}
			}
		}
		for i, u := range nodes {
			for v := range pinned[i] {
				if got := m.Dist(u, v); math.Float64bits(pinned[i][v]) != math.Float64bits(got) {
					t.Fatalf("%q: Pin row %d value %d = %v, Dist %v", spec, u, v, pinned[i][v], got)
				}
			}
		}
	})
}

package graph

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric is a read-only shortest-path distance oracle over a substrate
// graph. The placement algorithms, cost kernels, and workload generators
// only ever query distances; putting the oracle behind this interface lets
// the substrate size become a backend choice (dense matrix, on-demand
// sparse, landmark approximation) rather than an architectural limit.
//
// Contract:
//
//   - N reports the node count; Dist(u, v) is the shortest-path latency
//     from u to v (Infinity when unreachable), and Row(u) is the full
//     distance row from u.
//   - Row returns a slice that is OWNED BY THE BACKEND and must not be
//     modified by the caller. The slice is a BORROW: consume it (or copy
//     it with append([]float64(nil), row...)) before the next Row, Dist,
//     or AddEdge call, and never store it in a struct field or capture it
//     in a goroutine. The rowborrow analyzer (cmd/repcheck) enforces this
//     consumer-side discipline; see ANALYSIS.md.
//   - Today's backends never recycle row storage, so a stale borrow keeps
//     its old contents rather than racing (the contract-pinning tests in
//     metric_cache_test.go rely on this, under //repcheck:allow-rowborrow
//     annotations). New call sites must not: a future backend is free to
//     pool and overwrite evicted rows.
//   - All methods are safe for concurrent use as long as the underlying
//     Graph is not mutated concurrently.
//   - Mutating the Graph (AddEdge) after a backend was constructed
//     invalidates the backend's cached state: the next query observes the
//     moved Graph.Version and recomputes. Rows borrowed before the
//     mutation keep their old (pre-mutation) contents.
type Metric interface {
	N() int
	Dist(u, v int) float64
	Row(u int) []float64
}

// The dense matrix is the reference backend.
var _ Metric = (*Matrix)(nil)
var _ Metric = (*Sparse)(nil)
var _ Metric = (*Landmark)(nil)

// CenterOf returns a node with minimum eccentricity according to the
// metric, or -1 for an empty one. Ties break toward the smaller node id.
// The scan is exactly the dense Matrix.Center loop, so any exact backend
// (Dense, Sparse, Landmark in exact mode) yields the identical node.
func CenterOf(m Metric) int {
	n := m.N()
	best, bestEcc := -1, Infinity
	for v := 0; v < n; v++ {
		ecc := 0.0
		for _, d := range m.Row(v) {
			if d > ecc {
				ecc = d
			}
		}
		if best == -1 || ecc < bestEcc {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// DefaultSparseRows is the LRU row-cache capacity used when a Sparse
// backend is built without an explicit size.
const DefaultSparseRows = 128

// DefaultLandmarks is the landmark count used when a Landmark backend is
// built without an explicit k.
const DefaultLandmarks = 16

// NewMetric builds a metric backend for g from a spec string:
//
//	dense          all-pairs matrix (the default everywhere; exact)
//	sparse[:rows]  on-demand Dijkstra with an LRU cache of rows rows
//	               (default 128; exact, bit-identical to dense)
//	landmark[:k]   k-landmark upper-bound approximation (default k=16;
//	               exact when k >= n)
//
// Dense materializes the n×n matrix eagerly; sparse and landmark never
// do, which is what makes 10⁵–10⁶-node substrates feasible.
func NewMetric(g *Graph, spec string) (Metric, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	parse := func(what string, dflt int) (int, error) {
		if !hasArg {
			return dflt, nil
		}
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("graph: bad %s %q in metric spec %q", what, arg, spec)
		}
		return v, nil
	}
	switch name {
	case "", "dense":
		if hasArg {
			return nil, fmt.Errorf("graph: metric spec %q: dense takes no argument", spec)
		}
		return g.Metric(), nil
	case "sparse":
		rows, err := parse("row-cache size", DefaultSparseRows)
		if err != nil {
			return nil, err
		}
		return NewSparse(g, rows), nil
	case "landmark":
		k, err := parse("landmark count", DefaultLandmarks)
		if err != nil {
			return nil, err
		}
		return NewLandmark(g, k), nil
	default:
		return nil, fmt.Errorf("graph: unknown metric spec %q (want dense, sparse[:rows], or landmark[:k])", spec)
	}
}

// Sparse is an exact metric backend that computes distance rows on demand
// — one Dijkstra per queried source — and keeps at most capRows of them in
// an LRU cache. Memory is bounded by capRows×n×8 bytes instead of the
// dense matrix's n², plus the graph's flat adjacency copy that every
// Dijkstra reads (about 12 bytes per directed edge). Row values are
// produced by the same Dijkstra kernel the dense matrix uses, so every
// query is bit-identical to Dense.
type Sparse struct {
	g       *Graph
	capRows int

	mu      sync.Mutex
	version uint64
	rows    map[int]*sparseRow
	// LRU order over cached sources: lru[0] is most recently used. A
	// slice is fine at cache-sized lengths; moves are memmoves of ints.
	lru []int
}

// sparseRow is one cache entry. The entry is published in the map before
// its row is computed; latecomers block on ready instead of duplicating
// the Dijkstra. If the computation panics, the entry leaves the map and
// the LRU before ready closes with dist still nil, and every latecomer
// panics too. Eviction only drops the map/LRU references — the dist
// slice itself is immutable once published, so borrowers are unaffected.
type sparseRow struct {
	ready chan struct{}
	dist  []float64
}

// NewSparse returns a sparse backend for g caching up to capRows distance
// rows (DefaultSparseRows if capRows <= 0).
func NewSparse(g *Graph, capRows int) *Sparse {
	if capRows <= 0 {
		capRows = DefaultSparseRows
	}
	return &Sparse{
		g:       g,
		capRows: capRows,
		version: g.Version(),
		rows:    make(map[int]*sparseRow),
	}
}

// CachedRows reports how many rows are currently resident (including rows
// still being computed). Intended for tests and capacity monitoring.
func (s *Sparse) CachedRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// N returns the node count.
func (s *Sparse) N() int { return s.g.N() }

// Dist returns the shortest-path latency from u to v. Note the
// orientation: the value is read from u's row, matching Matrix.Dist —
// callers that rely on the exact float bits of d(u→v) versus d(v→u)
// (Dijkstra sums the same path in opposite orders) get the same bits the
// dense backend produces.
func (s *Sparse) Dist(u, v int) float64 { return s.Row(u)[v] }

// Row returns the distances from u to every node, computing the row with
// one Dijkstra on a cache miss. See the Metric contract for aliasing: the
// returned slice is read-only and remains valid after eviction. Row panics
// if u is not a node.
func (s *Sparse) Row(u int) []float64 {
	if n := s.g.N(); u < 0 || u >= n {
		panic(fmt.Sprintf("graph: Sparse.Row source %d out of range [0,%d)", u, n))
	}
	s.mu.Lock()
	if v := s.g.Version(); v != s.version {
		// The graph mutated since the cache was filled: drop everything.
		// In-flight computations finish against the new topology or the
		// old one; either way their entries are no longer reachable.
		s.version = v
		s.rows = make(map[int]*sparseRow)
		s.lru = s.lru[:0]
	}
	if r, ok := s.rows[u]; ok {
		s.touch(u)
		s.mu.Unlock()
		<-r.ready
		if r.dist == nil {
			panic(fmt.Sprintf("graph: Sparse.Row(%d): the computing call panicked", u))
		}
		return r.dist
	}
	r := &sparseRow{ready: make(chan struct{})}
	s.rows[u] = r
	s.lru = append(s.lru, 0)
	copy(s.lru[1:], s.lru)
	s.lru[0] = u
	if len(s.lru) > s.capRows {
		victim := s.lru[len(s.lru)-1]
		s.lru = s.lru[:len(s.lru)-1]
		delete(s.rows, victim)
	}
	s.mu.Unlock()
	defer func() {
		if r.dist == nil {
			s.drop(u, r) // the Dijkstra panicked: unpublish the entry
		}
		close(r.ready)
	}()

	// Compute outside the lock so distinct rows proceed in parallel.
	dist := make([]float64, s.g.N())
	s.g.shortestFromInto(u, dist)
	r.dist = dist
	return dist
}

// drop removes u's cache entry if it is still r.
func (s *Sparse) drop(u int, r *sparseRow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rows[u] != r {
		return
	}
	delete(s.rows, u)
	for i, v := range s.lru {
		if v == u {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
}

// touch moves u to the front of the LRU order.
func (s *Sparse) touch(u int) {
	for i, v := range s.lru {
		if v == u {
			copy(s.lru[1:i+1], s.lru[:i])
			s.lru[0] = u
			return
		}
	}
}

// Landmark is an approximate metric backend: k landmark nodes are chosen
// by a farthest-point sweep and one Dijkstra row is precomputed per
// landmark. Dist(u, v) is the tightest triangle upper bound
// min over landmarks L of d(u,L) + d(L,v) — never below the true distance
// by more than float rounding of the two halves, and exact whenever a
// landmark lies on a shortest u–v path. Memory and build cost are k rows,
// independent of the number of queries.
//
// Exact mode: when k >= n the backend delegates to a Sparse cache instead
// (every node would be a landmark, so the bound is the true distance);
// parity tests use this to pin the approximate plumbing against Dense.
type Landmark struct {
	g     *Graph
	k     int
	exact *Sparse // non-nil iff k >= n at construction

	buildMu sync.Mutex
	table   atomic.Pointer[landmarkTable]
}

// landmarkTable is an immutable landmark set + distance table, swapped
// atomically so queries are lock-free after the build.
type landmarkTable struct {
	version   uint64
	landmarks []int
	rows      [][]float64 // rows[i][v] = d(landmarks[i], v)
}

// NewLandmark returns a landmark backend with k landmarks
// (DefaultLandmarks if k <= 0). The landmark set and table are built
// lazily on first query and rebuilt if the graph mutates.
func NewLandmark(g *Graph, k int) *Landmark {
	if k <= 0 {
		k = DefaultLandmarks
	}
	l := &Landmark{g: g, k: k}
	if k >= g.N() {
		l.exact = NewSparse(g, k)
	}
	return l
}

// Exact reports whether the backend serves exact distances (k >= n).
func (l *Landmark) Exact() bool { return l.exact != nil }

// Landmarks returns the landmark node ids (building the table if needed).
// The slice is owned by the backend. Nil in exact mode.
func (l *Landmark) Landmarks() []int {
	if l.exact != nil {
		return nil
	}
	return l.load().landmarks
}

// N returns the node count.
func (l *Landmark) N() int { return l.g.N() }

// Dist returns the landmark upper bound on the u→v distance (the exact
// distance in exact mode). Dist(u, u) is always 0.
func (l *Landmark) Dist(u, v int) float64 {
	if l.exact != nil {
		return l.exact.Dist(u, v)
	}
	if u == v {
		return 0
	}
	t := l.load()
	best := Infinity
	for _, row := range t.rows {
		du, dv := row[u], row[v]
		if du == Infinity || dv == Infinity {
			continue
		}
		if s := du + dv; s < best {
			best = s
		}
	}
	return best
}

// Row materializes the bound row from u. Unlike the cached backends the
// slice is freshly allocated per call (O(k·n) work), which trivially
// satisfies the Metric borrow contract; hot loops should prefer Dist or
// hold the row.
func (l *Landmark) Row(u int) []float64 {
	if l.exact != nil {
		return l.exact.Row(u)
	}
	t := l.load()
	n := l.g.N()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		best := Infinity
		for _, row := range t.rows {
			du, dv := row[u], row[v]
			if du == Infinity || dv == Infinity {
				continue
			}
			if s := du + dv; s < best {
				best = s
			}
		}
		out[v] = best
	}
	return out
}

// load returns the current table, (re)building it when absent or stale.
func (l *Landmark) load() *landmarkTable {
	if t := l.table.Load(); t != nil && t.version == l.g.Version() {
		return t
	}
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	if t := l.table.Load(); t != nil && t.version == l.g.Version() {
		return t
	}
	t := l.build()
	l.table.Store(t)
	return t
}

// build selects landmarks by a deterministic farthest-point sweep from
// node 0 (the Gonzalez heuristic: each next landmark maximizes the
// distance to the chosen set, ties toward the smaller id) and computes one
// Dijkstra row per landmark.
func (l *Landmark) build() *landmarkTable {
	n := l.g.N()
	version := l.g.Version()
	t := &landmarkTable{version: version}
	if n == 0 {
		return t
	}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = Infinity
	}
	next := 0
	for len(t.landmarks) < l.k && len(t.landmarks) < n {
		t.landmarks = append(t.landmarks, next)
		row := make([]float64, n)
		l.g.shortestFromInto(next, row)
		t.rows = append(t.rows, row)
		minDist[next] = 0
		far, farDist := -1, -1.0
		for v := 0; v < n; v++ {
			if row[v] < minDist[v] {
				minDist[v] = row[v]
			}
			if minDist[v] > farDist && minDist[v] > 0 {
				far, farDist = v, minDist[v]
			}
		}
		if far == -1 {
			break // every node is a landmark or at distance 0
		}
		next = far
	}
	return t
}

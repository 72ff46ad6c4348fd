package graph

import (
	"fmt"
	"runtime"
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
// Contract — every row is a read-only snapshot:
//
//   - N reports the node count; Dist(u, v) is the shortest-path latency
//     from u to v (Infinity when unreachable), Pin(dst, nodes) appends
//     the distance rows of nodes to dst, in order, and returns the
//     extended slice, and Row(u) is the single-node case of Pin.
//   - A row from Row or Pin is a snapshot of the graph version at call
//     time that no backend ever recycles, so the caller may keep it —
//     across later metric calls, in a struct field, shared by goroutines
//     — until it drops it. Use Row for a one-off lookup; kernels that
//     read a fixed set of rows in a loop pin them once instead of calling
//     Row per element, and the caller bounds the memory it keeps alive
//     this way.
//   - No row may be written through: backends hand the same memory to
//     every caller. The rowborrow analyzer (cmd/repcheck) enforces this;
//     see ANALYSIS.md.
//   - All methods are safe for concurrent use as long as the underlying
//     Graph is not mutated concurrently.
//   - Mutating the Graph (AddEdge) after a backend was constructed
//     invalidates the backend's cached state: the next query observes the
//     moved Graph.Version and recomputes. Rows taken before the mutation
//     keep their old (pre-mutation) contents.
type Metric interface {
	N() int
	Dist(u, v int) float64
	Row(u int) []float64
	Pin(dst [][]float64, nodes []int) [][]float64
}

// The dense matrix is the reference backend.
var _ Metric = (*Matrix)(nil)
var _ Metric = (*Sparse)(nil)
var _ Metric = (*Landmark)(nil)

// CenterOf returns a node with minimum eccentricity according to the
// metric, or -1 for an empty one; a node that cannot reach every other has
// infinite eccentricity. Ties break toward the smaller node id. Both ONBR
// and ONTH start "hosting one server at the network center" (Section
// III-A). It is the one center scan: any exact backend (Dense, Sparse,
// Landmark in exact mode) yields the identical node.
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
// Dijkstra reads (about 12 bytes per directed edge). Rows held through
// Pin after the LRU evicted them add rows held × n × 8 bytes on top (the
// cost scorer holds one row per distinct access point of its demand
// until it is released, an Access evaluation at most 16). Row values are
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
// panics too — so an entry found in the map with ready closed always has
// its row. Eviction only drops the map/LRU references — the dist slice
// itself is immutable once published, so callers holding it are
// unaffected.
type sparseRow struct {
	ready chan struct{}
	dist  []float64
}

// pendingRow is a batch slot whose row was not ready at lookup: either
// this call published the entry and computes it, or it waits on the call
// that does.
type pendingRow struct {
	slot int // index into the batch
	u    int
	r    *sparseRow
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

// Row returns the distances from u to every node: the single-node case of
// Pin, computing the row with one Dijkstra on a cache miss. See the Metric
// contract for aliasing: the returned slice is read-only and remains
// valid after eviction. Row panics if u is not a node.
func (s *Sparse) Row(u int) []float64 {
	var one [1][]float64
	return s.Pin(one[:0], []int{u})[0]
}

// Pin appends the rows of nodes to dst. Every entry is looked up or
// published under one lock acquisition; the rows this call published are
// then computed concurrently (at most GOMAXPROCS goroutines, inline when
// there is at most one), and a node repeated in nodes is computed once.
// A batch of warm rows does not allocate beyond dst's growth. Pin panics,
// before touching the cache, if any node is out of range.
func (s *Sparse) Pin(dst [][]float64, nodes []int) [][]float64 {
	n := s.g.N()
	for _, u := range nodes {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("graph: Sparse row source %d out of range [0,%d)", u, n))
		}
	}
	base := len(dst)
	var misses, waits []pendingRow
	// A batch wider than the cache evicts its own earlier entries; batch
	// remembers them so a repeated node still maps to one entry.
	var batch map[int]*sparseRow
	if len(nodes) > s.capRows {
		batch = make(map[int]*sparseRow, len(nodes))
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
	for i, u := range nodes {
		r, ok := batch[u]
		published := false
		if !ok {
			if r, ok = s.rows[u]; ok {
				s.touch(u)
			} else {
				r, published = s.publish(u), true
			}
			if batch != nil {
				batch[u] = r
			}
		}
		switch p := (pendingRow{slot: i, u: u, r: r}); {
		case published:
			misses = append(misses, p)
		case r.done():
			dst = append(dst, r.dist)
			continue
		default:
			waits = append(waits, p)
		}
		dst = append(dst, nil)
	}
	s.mu.Unlock()

	s.compute(misses)
	for _, p := range misses {
		dst[base+p.slot] = p.r.dist
	}
	for _, p := range waits {
		<-p.r.ready
		if p.r.dist == nil {
			panic(fmt.Sprintf("graph: Sparse row %d: the computing call panicked", p.u))
		}
		dst[base+p.slot] = p.r.dist
	}
	return dst
}

// done reports whether r's computation has finished.
func (r *sparseRow) done() bool {
	select {
	case <-r.ready:
		return true
	default:
		return false
	}
}

// publish inserts a fresh, not-yet-ready entry for u at the front of the
// LRU, evicting the least recently used row beyond capacity. The caller
// holds s.mu and must compute the entry.
func (s *Sparse) publish(u int) *sparseRow {
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
	return r
}

// compute runs the Dijkstras of the entries a Pin published, outside the
// lock so distinct rows proceed in parallel: inline for one, otherwise on
// at most GOMAXPROCS goroutines pulling from a shared counter. Every entry
// is closed even if another one's computation panics; the first panic is
// re-raised in the caller once all of them are done.
func (s *Sparse) compute(misses []pendingRow) {
	if len(misses) <= 1 {
		for _, p := range misses {
			s.fill(p.u, p.r)
		}
		return
	}
	workers := min(runtime.GOMAXPROCS(0), len(misses))
	var next atomic.Int64
	var failed atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(misses)); k = next.Add(1) - 1 {
				func() {
					defer func() {
						if v := recover(); v != nil {
							failed.CompareAndSwap(nil, &v)
						}
					}()
					s.fill(misses[k].u, misses[k].r)
				}()
			}
		}()
	}
	wg.Wait()
	if v := failed.Load(); v != nil {
		panic(*v)
	}
}

// fill computes u's row into the published entry r and closes ready. If
// the Dijkstra panics, the entry is unpublished first, so latecomers
// panic instead of blocking and the next query recomputes.
func (s *Sparse) fill(u int, r *sparseRow) {
	defer func() {
		if r.dist == nil {
			s.drop(u, r)
		}
		close(r.ready)
	}()
	dist := make([]float64, s.g.N())
	s.g.dijkstra(u, dist)
	r.dist = dist
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
// slice is freshly allocated per call (O(k·n) work), so a kernel that
// reads a row more than once pins it (Pin) instead of calling Row again.
func (l *Landmark) Row(u int) []float64 {
	if l.exact != nil {
		return l.exact.Row(u)
	}
	return l.row(l.load(), u)
}

// Pin appends the bound rows of nodes to dst, materializing each distinct
// node's row once (the exact mode pins through its Sparse cache).
func (l *Landmark) Pin(dst [][]float64, nodes []int) [][]float64 {
	if l.exact != nil {
		return l.exact.Pin(dst, nodes)
	}
	t := l.load()
	seen := make(map[int][]float64, len(nodes))
	for _, u := range nodes {
		r, ok := seen[u]
		if !ok {
			r = l.row(t, u)
			seen[u] = r
		}
		dst = append(dst, r)
	}
	return dst
}

// row materializes the bound row from u over table t.
func (l *Landmark) row(t *landmarkTable, u int) []float64 {
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
		l.g.dijkstra(next, row)
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

package graph

import (
	"fmt"
	"math"
	"sync"
)

// Infinity is the distance reported between disconnected nodes.
const Infinity = math.MaxFloat64

// adjacency is a flat (CSR) copy of the adjacency lists, the layout the
// Dijkstra kernel relaxes edges from: the edges leaving u are
// to[off[u]:off[u+1]] with latencies lat[off[u]:off[u+1]], in adjacency-
// list order. It costs 12 bytes per directed edge plus 4 per node, and is
// built once per graph version (see Graph.flat).
type adjacency struct {
	version uint64
	off     []int32
	to      []int32
	lat     []float64
}

// flat returns the CSR adjacency of the current graph version, building
// it on first use. AddEdge drops the cached copy and the version tag
// guards against serving a stale one. Concurrent first calls may each
// build a copy; they are identical and the last store wins.
func (g *Graph) flat() *adjacency {
	v := g.Version()
	if a := g.csr.Load(); a != nil && a.version == v {
		return a
	}
	n, arcs := g.N(), 2*g.M()
	if n > math.MaxInt32 || arcs > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes and %d directed edges overflow the int32 CSR adjacency", n, arcs))
	}
	a := &adjacency{
		version: v,
		off:     make([]int32, n+1),
		to:      make([]int32, 0, arcs),
		lat:     make([]float64, 0, arcs),
	}
	for u, es := range g.adj {
		for _, e := range es {
			a.to = append(a.to, int32(e.To))
			a.lat = append(a.lat, e.Latency)
		}
		a.off[u+1] = int32(len(a.to))
	}
	g.csr.Store(a)
	return a
}

// heapArity is the branching factor of the frontier heap: a 4-ary heap is
// half as deep as a binary one, and a node's children are adjacent in
// memory, so a pop touches fewer cache lines.
const heapArity = 4

// entry is a node with a tentative distance in the Dijkstra frontier.
type entry struct {
	dist float64
	node int32
}

// frontier is a heapArity-ary min-heap of entries keyed by tentative
// distance.
type frontier struct{ h []entry }

// frontierPool recycles frontier backing arrays, so a steady-state
// Dijkstra allocates nothing beyond its caller's output.
var frontierPool = sync.Pool{New: func() any { return new(frontier) }}

// push adds e to the frontier.
func (f *frontier) push(e entry) {
	f.h = append(f.h, e)
	h := f.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if h[p].dist <= e.dist {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns an entry of least distance. The frontier must
// not be empty.
func (f *frontier) pop() entry {
	h := f.h
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	f.h = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := heapArity*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < min(c+heapArity, len(h)); j++ {
			if h[j].dist < h[m].dist {
				m = j
			}
		}
		if h[m].dist >= last.dist {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// ShortestFrom runs Dijkstra's algorithm from src and returns the latency of
// the shortest path to every node. Unreachable nodes get Infinity. The
// request access cost of Section II-B assumes requests travel along such
// shortest (latency) paths.
func (g *Graph) ShortestFrom(src int) []float64 {
	dist := make([]float64, g.N())
	g.shortestFromInto(src, dist)
	return dist
}

// shortestFromInto is ShortestFrom writing into a caller-provided slice,
// which lets the all-pairs computation reuse one row per goroutine without
// per-source allocation of the result.
func (g *Graph) shortestFromInto(src int, dist []float64) {
	g.dijkstra(src, -1, dist, nil)
}

// ShortestPath returns one latency-shortest path from src to dst as a node
// sequence including both endpoints, together with its total latency. The
// second return is false if dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, bool) {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]int, n)
	g.dijkstra(src, dst, dist, prev)
	if dist[dst] == Infinity {
		return nil, Infinity, false
	}
	// Walk predecessors back from dst.
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst], true
}

// dijkstra is the one shortest-path kernel. It fills dist with the
// latencies from src and, when prev is non-nil, prev with each node's
// predecessor on the path found (-1 for src and unreached nodes). It stops
// once dst is settled; dst = -1 settles every reachable node.
//
// dist[v] ends as the smallest left-to-right float sum of latencies over
// the src→v paths. Latencies are positive and float addition is monotone,
// so fl(d+λ) ≥ d and every pop order among equal keys yields that same
// minimum: the row does not depend on the heap's tie-breaking.
func (g *Graph) dijkstra(src, dst int, dist []float64, prev []int) {
	a := g.flat()
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range prev {
		prev[i] = -1
	}
	dist[src] = 0
	f := frontierPool.Get().(*frontier)
	f.push(entry{node: int32(src)})
	for len(f.h) > 0 {
		cur := f.pop()
		if cur.dist > dist[cur.node] {
			continue // stale entry
		}
		if int(cur.node) == dst {
			break
		}
		lo, hi := a.off[cur.node], a.off[cur.node+1]
		to, lat := a.to[lo:hi], a.lat[lo:hi]
		for i, v := range to {
			if nd := cur.dist + lat[i]; nd < dist[v] {
				dist[v] = nd
				if prev != nil {
					prev[v] = int(cur.node)
				}
				f.push(entry{dist: nd, node: v})
			}
		}
	}
	f.h = f.h[:0]
	frontierPool.Put(f)
}

// Eccentricity returns the largest finite shortest-path latency from v, or
// Infinity if some node is unreachable from v.
func (g *Graph) Eccentricity(v int) float64 {
	dist := g.ShortestFrom(v)
	ecc := 0.0
	for _, d := range dist {
		if d == Infinity {
			return Infinity
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Center returns a node with minimum eccentricity. Both ONBR and ONTH start
// "hosting one server at the network center" (Section III-A). Ties break
// toward the smaller node id; the empty graph has no center and yields -1.
// When the all-pairs matrix has already been computed (see Metric), the
// center is read from it; the one-Dijkstra-per-node scan is only the
// fallback for graphs whose matrix was never needed.
func (g *Graph) Center() int {
	if m := g.metric.Load(); m != nil {
		return m.Center()
	}
	best, bestEcc := -1, Infinity
	for v := 0; v < g.N(); v++ {
		if ecc := g.Eccentricity(v); ecc < bestEcc || best == -1 {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// ApproxCenter estimates a low-eccentricity node with three Dijkstra
// sweeps instead of n: find the farthest node a from node 0, the farthest
// node b from a (a–b approximates a diameter), and return the node
// minimizing max(d(a,x), d(b,x)) — a midpoint of the pseudo-diameter. Ties
// break toward the smaller node id. Intended for the huge connected
// substrates of the sparse/landmark backends, where the exact center scan
// is the bottleneck; on disconnected graphs it only considers node 0's
// component.
func (g *Graph) ApproxCenter() int {
	n := g.N()
	if n == 0 {
		return -1
	}
	farthest := func(dist []float64) int {
		far, farDist := 0, -1.0
		for v, d := range dist {
			if d != Infinity && d > farDist {
				far, farDist = v, d
			}
		}
		return far
	}
	d0 := g.ShortestFrom(0)
	a := farthest(d0)
	da := g.ShortestFrom(a)
	b := farthest(da)
	db := g.ShortestFrom(b)
	best, bestEcc := -1, Infinity
	for v := 0; v < n; v++ {
		if da[v] == Infinity || db[v] == Infinity {
			continue
		}
		ecc := da[v]
		if db[v] > ecc {
			ecc = db[v]
		}
		if best == -1 || ecc < bestEcc {
			best, bestEcc = v, ecc
		}
	}
	return best
}

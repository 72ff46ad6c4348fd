package graph

import (
	"fmt"
	"math"
	"sync"
)

// Infinity is the distance reported between disconnected nodes.
const Infinity = math.MaxFloat64

// adjacency is a flat (CSR) copy of the adjacency lists, the layout the
// shortest-path kernel relaxes edges from: the edges leaving u are
// to[off[u]:off[u+1]] with latencies lat[off[u]:off[u+1]], in adjacency-
// list order. It costs 12 bytes per directed edge plus 4 per node, and is
// built once per graph version (see Graph.flat), together with the kernel's
// bucket width delta.
type adjacency struct {
	version uint64
	off     []int32
	to      []int32
	lat     []float64
	delta   float64
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
	lo, hi := Infinity, 0.0
	for u, es := range g.adj {
		for _, e := range es {
			a.to = append(a.to, int32(e.To))
			a.lat = append(a.lat, e.Latency)
			lo, hi = min(lo, e.Latency), max(hi, e.Latency)
		}
		a.off[u+1] = int32(len(a.to))
	}
	if len(a.lat) > 0 {
		a.delta = max(lo, hi/bucketSpan)
	}
	g.csr.Store(a)
	return a
}

// bucketSpan is the number of bucket widths the heaviest arc spans, unless
// the lightest arc is wider: delta = max(min λ, max λ / bucketSpan). A
// relaxation from bucket cur then lands at most bucketSpan+1 buckets
// ahead, so bucketSpan+2 cyclic slots hold every live entry.
const bucketSpan = 1024

// entry is a node with a tentative distance, linked into one bucket's list
// or the free list.
type entry struct {
	dist float64
	node int32
	next int32 // index of the next entry in the same list; -1 ends it
}

// buckets is the kernel's cyclic bucket queue: head[s] starts slot s's
// list of entries, all stored in ents, and popped entries are recycled
// through the free list. ents grows to the most entries ever live at once
// and the pool keeps it, so a steady-state row allocates nothing beyond
// its caller's output.
type buckets struct {
	head [bucketSpan + 2]int32
	ents []entry
	free int32
}

var bucketPool = sync.Pool{New: func() any {
	q := &buckets{free: -1}
	for s := range q.head {
		q.head[s] = -1
	}
	return q
}}

// push files {d, v} in slot s.
func (q *buckets) push(s int, d float64, v int32) {
	e := entry{dist: d, node: v, next: q.head[s]}
	if i := q.free; i >= 0 {
		q.free, q.ents[i], q.head[s] = q.ents[i].next, e, i
		return
	}
	q.head[s] = int32(len(q.ents))
	q.ents = append(q.ents, e)
}

// pop removes and returns the first entry of slot s, which must not be
// empty.
func (q *buckets) pop(s int) entry {
	i := q.head[s]
	e := q.ents[i]
	q.head[s], q.ents[i].next, q.free = e.next, q.free, i
	return e
}

// ShortestFrom returns the latency of the shortest path from src to every
// node. Unreachable nodes get Infinity. The request access cost of Section
// II-B assumes requests travel along such shortest (latency) paths.
func (g *Graph) ShortestFrom(src int) []float64 {
	dist := make([]float64, g.N())
	g.dijkstra(src, dist)
	return dist
}

// dijkstra is the one shortest-path kernel, a label-correcting scan over a
// cyclic bucket queue of width delta (Dial's buckets, Δ-stepping when arcs
// are lighter than delta). It fills dist, a caller-provided row of N()
// entries, with the latencies from src, so the all-pairs computation and
// the sparse backends reuse their rows without per-source allocation.
//
// A relaxation that lowers dist[v] to nd files {nd, v} in bucket
// max(⌊nd/delta⌋, cur), where cur is the bucket being scanned; an entry
// whose dist no longer equals dist[v] is stale and skipped, and a node is
// scanned again whenever its label drops. The row is exact whatever delta
// is. Labels start at Infinity and change only on a strict nd < dist[v],
// so every label is the left-to-right float sum of some walk from src. At
// the end every arc u→v satisfies dist[v] ≤ fl(dist[u]+λ); rounded + is
// monotone, so by induction along any path dist[v] is at most that path's
// float sum. Dropping a cycle from a walk never raises its sum, so each
// label is exactly the minimum of the float sums over the src→v paths,
// which no scan order changes.
func (g *Graph) dijkstra(src int, dist []float64) {
	a := g.flat()
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	q := bucketPool.Get().(*buckets)
	q.push(0, 0, int32(src))
	// slot is cur's index in q.head; live counts the entries filed in q.
	for cur, slot, live := 0, 0, 1; live > 0; cur, slot = cur+1, slot+1 {
		if slot == len(q.head) {
			slot = 0
		}
		for ; q.head[slot] >= 0; live-- {
			e := q.pop(slot)
			if e.dist != dist[e.node] {
				continue // stale entry
			}
			lo, hi := a.off[e.node], a.off[e.node+1]
			to, lat := a.to[lo:hi], a.lat[lo:hi]
			for j, v := range to {
				nd := e.dist + lat[j]
				if nd >= dist[v] {
					continue
				}
				dist[v] = nd
				// Only rounding of nd/delta can reach past bucketSpan+1
				// ahead; any bucket from cur on keeps the row exact.
				s := slot + min(max(int(nd/a.delta)-cur, 0), bucketSpan+1)
				if s >= len(q.head) {
					s -= len(q.head)
				}
				q.push(s, nd, v)
				live++
			}
		}
	}
	q.ents, q.free = q.ents[:0], -1
	bucketPool.Put(q)
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

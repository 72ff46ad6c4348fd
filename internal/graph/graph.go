// Package graph implements the substrate network model of Section II-B of
// the paper: an undirected graph G = (V, E) whose nodes carry a strength
// ω(v) (CPU cores, memory size, bus speed, ...) and whose links carry a
// bandwidth capacity ω(e) and a latency λ(e).
//
// Node identifiers are dense integers in [0, N). The zero value of Graph is
// an empty graph; use New to allocate a graph with a fixed node count.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Common bandwidth constants used throughout the paper's simulations
// (Section V-A): link bandwidths are chosen at random as either T1 or T2.
const (
	// BandwidthT1 is the capacity of a T1 line in Mbit/s.
	BandwidthT1 = 1.544
	// BandwidthT2 is the capacity of a T2 line in Mbit/s.
	BandwidthT2 = 6.312
)

// DefaultStrength is the node strength ω(v) assigned when none is given.
// With the paper's linear load model load(v,t) = η(v,t)/ω(v), a strength of
// one makes the induced load equal to the number of requests at the node.
const DefaultStrength = 1.0

// Edge is one endpoint's view of an undirected substrate link.
type Edge struct {
	To        int     // neighbour node
	Latency   float64 // λ(e), the link latency (abstract time units)
	Bandwidth float64 // ω(e), the link capacity (Mbit/s)
}

// Graph is a substrate network. It is immutable after construction as far
// as the algorithms are concerned; mutation methods are only intended for
// builders and generators.
type Graph struct {
	adj      [][]Edge  // adjacency lists, adj[u] holds edges leaving u
	strength []float64 // ω(v) per node
	edges    int       // number of undirected edges

	// metric caches the all-pairs shortest-path matrix. AddEdge
	// invalidates it; strength changes do not affect distances.
	metric atomic.Pointer[Matrix]

	// csr caches the flat adjacency the Dijkstra kernel relaxes edges
	// from (see flat). AddEdge drops it; it is tagged with the version it
	// was built from.
	csr atomic.Pointer[adjacency]

	// version counts distance-affecting mutations (AddEdge). Metric
	// backends that hold derived state (Sparse row caches, Landmark
	// tables) compare it against the version they were built from and
	// rebuild lazily when it moved — the same invalidation contract the
	// dense matrix cache gets from metric.Store(nil) above.
	version atomic.Uint64
}

// New returns a graph with n isolated nodes, each with DefaultStrength.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	g := &Graph{
		adj:      make([][]Edge, n),
		strength: make([]float64, n),
	}
	for i := range g.strength {
		g.strength[i] = DefaultStrength
	}
	return g
}

// N returns the number of substrate nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected links.
func (g *Graph) M() int { return g.edges }

// Strength returns ω(v) for node v.
func (g *Graph) Strength(v int) float64 { return g.strength[v] }

// SetStrength sets ω(v). It panics if s is not positive: a node with
// non-positive strength would make the load function of Section II-B
// undefined.
func (g *Graph) SetStrength(v int, s float64) {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic(fmt.Sprintf("graph: invalid strength %v for node %d", s, v))
	}
	g.strength[v] = s
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Degree returns the number of links incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// AddEdge inserts an undirected link between u and v with latency lat and
// bandwidth bw. It returns an error for self loops, duplicate links,
// out-of-range endpoints, or non-positive latency (the access-cost model
// sums link latencies along shortest paths, so a non-positive latency would
// break Dijkstra's invariants).
func (g *Graph) AddEdge(u, v int, lat, bw float64) error {
	switch {
	case u < 0 || u >= g.N() || v < 0 || v >= g.N():
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N())
	case u == v:
		return fmt.Errorf("graph: self loop at node %d", u)
	case lat <= 0 || math.IsNaN(lat) || math.IsInf(lat, 0):
		return fmt.Errorf("graph: invalid latency %v on edge (%d,%d)", lat, u, v)
	case bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0):
		return fmt.Errorf("graph: invalid bandwidth %v on edge (%d,%d)", bw, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Latency: lat, Bandwidth: bw})
	g.adj[v] = append(g.adj[v], Edge{To: u, Latency: lat, Bandwidth: bw})
	g.edges++
	g.metric.Store(nil)
	g.csr.Store(nil)
	g.version.Add(1)
	return nil
}

// Version returns a counter incremented by every distance-affecting
// mutation. Equal versions across two reads guarantee all shortest-path
// distances are unchanged between them; metric backends use it to detect
// that their cached rows or tables are stale.
func (g *Graph) Version() uint64 { return g.version.Load() }

// MustAddEdge is AddEdge but panics on error. It is intended for generators
// and tests where the arguments are known to be valid.
func (g *Graph) MustAddEdge(u, v int, lat, bw float64) {
	if err := g.AddEdge(u, v, lat, bw); err != nil {
		panic(err)
	}
}

// HasEdge reports whether an undirected link between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// EdgeBetween returns the link between u and v, if any.
func (g *Graph) EdgeBetween(u, v int) (Edge, bool) {
	if u < 0 || u >= g.N() {
		return Edge{}, false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return e, true
		}
	}
	return Edge{}, false
}

// ErrDisconnected is returned by Validate for graphs that are not connected.
var ErrDisconnected = errors.New("graph: not connected")

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := make([]int, 0, n)
	stack = append(stack, 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Validate checks structural invariants: connectivity and symmetric
// adjacency. Algorithms in this module assume both.
func (g *Graph) Validate() error {
	if !g.Connected() {
		return ErrDisconnected
	}
	for u := range g.adj {
		for _, e := range g.adj[u] {
			back, ok := g.EdgeBetween(e.To, u)
			if !ok {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, e.To)
			}
			if back.Latency != e.Latency || back.Bandwidth != e.Bandwidth {
				return fmt.Errorf("graph: edge (%d,%d) attribute mismatch", u, e.To)
			}
		}
	}
	return nil
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

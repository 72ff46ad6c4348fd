package graph

import (
	"runtime"
	"sync"
)

// Matrix holds all-pairs shortest-path latencies of a graph. Access-cost
// evaluation queries distances for every request in every round, so the
// simulator computes the matrix once per topology and shares it.
type Matrix struct {
	n    int
	dist []float64 // row-major n×n
}

// AllPairs computes the all-pairs shortest-path latency matrix by running
// one Dijkstra per source, fanned out over all CPUs. The result is also
// cached on the graph (see Metric).
func (g *Graph) AllPairs() *Matrix {
	n := g.N()
	m := &Matrix{n: n, dist: make([]float64, n*n)}
	if n == 0 {
		g.metric.Store(m)
		return m
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range next {
				g.dijkstra(src, m.dist[src*n:(src+1)*n])
			}
		}()
	}
	for src := 0; src < n; src++ {
		next <- src
	}
	close(next)
	wg.Wait()
	g.metric.Store(m)
	return m
}

// Metric returns the all-pairs matrix, computing it at most once per
// topology: repeated calls (and calls after AllPairs) return the cached
// matrix until an edge mutation invalidates it.
func (g *Graph) Metric() *Matrix {
	if m := g.metric.Load(); m != nil {
		return m
	}
	return g.AllPairs()
}

// N returns the node count the matrix was built for.
func (m *Matrix) N() int { return m.n }

// Dist returns the shortest-path latency from u to v (Infinity if
// unreachable).
func (m *Matrix) Dist(u, v int) float64 { return m.dist[u*m.n+v] }

// Row returns the distances from u to every node. The returned slice is
// owned by the matrix and must not be modified.
func (m *Matrix) Row(u int) []float64 { return m.dist[u*m.n : (u+1)*m.n] }

// Pin appends the rows of nodes to dst as sub-slices of the matrix: no
// copy, and no allocation when dst has capacity. The matrix is immutable,
// so the rows stay valid for as long as the caller keeps them.
func (m *Matrix) Pin(dst [][]float64, nodes []int) [][]float64 {
	for _, u := range nodes {
		dst = append(dst, m.dist[u*m.n:(u+1)*m.n])
	}
	return dst
}

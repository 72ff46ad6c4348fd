package graph

import (
	"container/heap"
	"math"
	"testing"
)

// naiveItem is a node with a tentative distance in the reference frontier.
type naiveItem struct {
	node int
	dist float64
}

// naiveFrontier is a binary container/heap min-heap keyed by tentative
// distance.
type naiveFrontier []naiveItem

func (f naiveFrontier) Len() int            { return len(f) }
func (f naiveFrontier) Less(i, j int) bool  { return f[i].dist < f[j].dist }
func (f naiveFrontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *naiveFrontier) Push(x interface{}) { *f = append(*f, x.(naiveItem)) }
func (f *naiveFrontier) Pop() interface{} {
	old := *f
	it := old[len(old)-1]
	*f = old[:len(old)-1]
	return it
}

// naiveShortestFrom is the reference Dijkstra the kernel is pinned to: a
// binary container/heap frontier of boxed items relaxing edges straight
// from the adjacency lists, with the same lazy deletion and strict
// relaxation test.
func naiveShortestFrom(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	f := naiveFrontier{{node: src}}
	for f.Len() > 0 {
		cur := heap.Pop(&f).(naiveItem)
		if cur.dist > dist[cur.node] {
			continue
		}
		for _, e := range g.Neighbors(cur.node) {
			if nd := cur.dist + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(&f, naiveItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

// fuzzLatency maps a byte to a link latency. Half the bytes give the unit
// latency, so equal tentative distances (heap ties) are everywhere; tiny
// latencies vanish when added to a distance of 1 or more, so fl(d+λ) = d
// ties occur too; large ones overflow to +Inf within a few hops.
func fuzzLatency(c byte) float64 {
	switch c >> 6 {
	case 2:
		return math.Ldexp(1+float64(c&63), -60)
	case 3:
		return math.Ldexp(1+float64(c&63)/64, 1020)
	default:
		return 1
	}
}

// checkRowsAgainstNaive compares every row, and one ShortestPath per
// source, with the reference, as exact float bits.
func checkRowsAgainstNaive(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	for src := 0; src < n; src++ {
		want := naiveShortestFrom(g, src)
		got := g.ShortestFrom(src)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%v: ShortestFrom(%d)[%d] = %v, reference %v", g, src, v, got[v], want[v])
			}
		}
		dst := (src*7 + 3) % n
		path, d, ok := g.ShortestPath(src, dst)
		if ok != (want[dst] != Infinity) || math.Float64bits(d) != math.Float64bits(want[dst]) {
			t.Fatalf("%v: ShortestPath(%d,%d) = %v,%v, reference %v", g, src, dst, d, ok, want[dst])
		}
		if !ok {
			continue
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("%v: ShortestPath(%d,%d) = %v has the wrong endpoints", g, src, dst, path)
		}
		sum := 0.0
		for i := 1; i < len(path); i++ {
			e, found := g.EdgeBetween(path[i-1], path[i])
			if !found {
				t.Fatalf("%v: ShortestPath(%d,%d) = %v uses a missing edge", g, src, dst, path)
			}
			sum += e.Latency
		}
		if math.Float64bits(sum) != math.Float64bits(d) {
			t.Fatalf("%v: ShortestPath(%d,%d) = %v sums to %v, reported %v", g, src, dst, path, sum, d)
		}
	}
}

// FuzzShortestFrom pins the Dijkstra kernel bit for bit to the reference
// on small graphs decoded from the input: byte 0 picks n ≤ 64, every
// following byte triple is an edge (u, v, latency class); invalid edges
// are skipped, so sparse inputs give disconnected graphs. The first half
// of the edges is queried before the rest is added, so the second check
// runs after AddEdge dropped the cached adjacency.
func FuzzShortestFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 0})
	f.Add([]byte{5, 0, 1, 130, 1, 2, 200, 2, 3, 255, 3, 4, 129, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 64
			data = data[1:]
		}
		g := New(n)
		edges := len(data) / 3
		for i := 0; i < edges; i++ {
			if i == (edges+1)/2 {
				checkRowsAgainstNaive(t, g)
			}
			b := data[3*i : 3*i+3]
			_ = g.AddEdge(int(b[0])%n, int(b[1])%n, fuzzLatency(b[2]), 1)
		}
		checkRowsAgainstNaive(t, g)
	})
}

// TestShortestFromAllocationFree pins the kernel's steady state: once the
// flat adjacency is built and the frontier pool is warm, a row into a
// caller-owned slice allocates nothing.
func TestShortestFromAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	g := chordedRing(300, 150, 3)
	row := make([]float64, g.N())
	for src := 0; src < g.N(); src++ {
		g.shortestFromInto(src, row)
	}
	src := 0
	allocs := testing.AllocsPerRun(200, func() {
		src = (src + 7) % g.N()
		g.shortestFromInto(src, row)
	})
	if allocs != 0 {
		t.Fatalf("shortestFromInto: %v allocs/op after warm-up, want 0", allocs)
	}
}

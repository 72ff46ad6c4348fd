package graph

import (
	"container/heap"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// checkRowsAgainstNaive compares every row with the reference, as exact
// float bits.
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
	}
}

// fuzzGraph decodes a fuzz input into a graph: byte 0 picks n ≤ 64, every
// following byte triple is an edge (u, v, latency class); invalid edges
// are skipped, so sparse inputs give disconnected graphs. halfway, if not
// nil, sees the graph once the first half of the edges is in.
func fuzzGraph(data []byte, halfway func(*Graph)) *Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 64
		data = data[1:]
	}
	g := New(n)
	edges := len(data) / 3
	for i := 0; i < edges; i++ {
		if i == (edges+1)/2 && halfway != nil {
			halfway(g)
		}
		b := data[3*i : 3*i+3]
		_ = g.AddEdge(int(b[0])%n, int(b[1])%n, fuzzLatency(b[2]), 1)
	}
	return g
}

// checkShortestFromInput decodes a FuzzShortestFrom input (see fuzzGraph)
// and checks the graph against the reference twice: with the first half of
// the edges, and with all of them, after AddEdge dropped the cached
// adjacency. It returns the graph.
func checkShortestFromInput(t *testing.T, data []byte) *Graph {
	t.Helper()
	g := fuzzGraph(data, func(g *Graph) { checkRowsAgainstNaive(t, g) })
	checkRowsAgainstNaive(t, g)
	return g
}

// FuzzShortestFrom pins the shortest-path kernel bit for bit to the
// reference on small graphs decoded from the input (see
// checkShortestFromInput).
func FuzzShortestFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 0})
	f.Add([]byte{5, 0, 1, 130, 1, 2, 200, 2, 3, 255, 3, 4, 129, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) { checkShortestFromInput(t, data) })
}

// readCorpusEntry returns the []byte value of a committed seed-corpus
// entry, testdata/fuzz/<target>/<name>.
func readCorpusEntry(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	data, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("corpus entry %s/%s is not a single []byte value", target, name)
	}
	return []byte(data)
}

// TestShortestFromBucketEdgeCases runs the bucket queue's edge cases, the
// FuzzShortestFrom corpus entries of the same names, against the
// reference and pins one distance of each:
//
//   - bucket_boundaries: unit latencies, so delta = 1 and every label is
//     an integer, exactly on a bucket boundary;
//   - vanishing_arc: a 2⁻⁶⁰ arc beside unit arcs, where fl(d+λ) = d;
//   - wide_ratio_rescan: 2⁻⁶⁰ and 2⁻⁵⁴ arcs beside a unit arc, so delta =
//     2⁻¹⁰ is far above the lightest arc and both gadgets sit in bucket 0.
//     From node 4, node 5 is scanned at 2⁻⁵⁴ before 4→6→5 lowers it to
//     2⁻⁵⁹; only a rescan of 5 gives node 7 its 3·2⁻⁶⁰ (a kernel that
//     settles a node on its first scan leaves 2⁻⁵⁴+2⁻⁶⁰). Node 0's gadget
//     lists the same arcs in the other order, so either scan order within
//     a bucket meets one of them;
//   - isolated_node, single_node, one_arc: the smallest graphs.
func TestShortestFromBucketEdgeCases(t *testing.T) {
	tiny := math.Ldexp(1, -60)
	for _, c := range []struct {
		name   string
		src, v int
		want   float64
	}{
		{"bucket_boundaries", 1, 5, 3},
		{"vanishing_arc", 3, 0, 2},
		{"wide_ratio_rescan", 4, 7, 3 * tiny},
		{"wide_ratio_rescan", 0, 3, 3 * tiny},
		{"isolated_node", 0, 2, Infinity},
		{"single_node", 0, 0, 0},
		{"one_arc", 1, 0, 1},
	} {
		g := checkShortestFromInput(t, readCorpusEntry(t, "FuzzShortestFrom", c.name))
		if got := g.ShortestFrom(c.src)[c.v]; math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: ShortestFrom(%d)[%d] = %v, want %v", c.name, c.src, c.v, got, c.want)
		}
	}
}

// TestShortestFromAllocationFree pins the kernel's steady state: once the
// flat adjacency is built and the bucket pool is warm, a row into a
// caller-owned slice allocates nothing.
func TestShortestFromAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	g := chordedRing(300, 150, 3)
	row := make([]float64, g.N())
	for src := 0; src < g.N(); src++ {
		g.dijkstra(src, row)
	}
	src := 0
	allocs := testing.AllocsPerRun(200, func() {
		src = (src + 7) % g.N()
		g.dijkstra(src, row)
	})
	if allocs != 0 {
		t.Fatalf("dijkstra: %v allocs/op after warm-up, want 0", allocs)
	}
}

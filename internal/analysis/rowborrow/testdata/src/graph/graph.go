// Package graph is a fixture stub of the repo's metric backends. The
// rowborrow analyzer identifies Row and Pin methods on named types
// from a package named graph, so this stub only needs the shapes.
package graph

type Matrix struct {
	n    int
	rows [][]float64
}

func NewMatrix(n int) *Matrix {
	m := &Matrix{n: n, rows: make([][]float64, n)}
	for i := range m.rows {
		m.rows[i] = make([]float64, n)
	}
	return m
}

func (m *Matrix) N() int { return m.n }

func (m *Matrix) Dist(u, v int) float64 { return m.rows[u][v] }

func (m *Matrix) Row(u int) []float64 { return m.rows[u] }

func (m *Matrix) Pin(dst [][]float64, nodes []int) [][]float64 {
	for _, u := range nodes {
		dst = append(dst, m.rows[u])
	}
	return dst
}

func (m *Matrix) AddEdge(u, v int, w float64) {
	m.rows[u][v] = w
	m.rows[v][u] = w
}

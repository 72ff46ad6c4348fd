package cost

import "repro/internal/graph"

// pinPairs pins the distance rows of the pairs' access points, in pair
// order: rows[i] is the row of pairs[i].Node. nodes is scratch for the
// node ids; both slices are reused and returned. Callers clear the rows
// once done so pooled scratch does not keep large rows alive.
func pinPairs(m graph.Metric, rows [][]float64, nodes []int, pairs []NodeCount) ([][]float64, []int) {
	nodes = growI(nodes, len(pairs))
	for i, p := range pairs {
		nodes[i] = p.Node
	}
	return m.Pin(rows[:0], nodes), nodes
}

// growF returns a slice of exactly n float64s, reusing buf's backing array
// when it is large enough. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growI is growF for int slices.
func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growI32 is growF for int32 slices.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growB is growF for bool slices; the returned slice is zeroed.
func growB(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

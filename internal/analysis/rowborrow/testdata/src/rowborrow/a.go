// Fixture for the rowborrow analyzer: rows from graph.Metric.Row and
// graph.Metric.Pin are read-only snapshots, so writes and copies into
// them are findings. Keeping a row anywhere is not: retention across
// later metric calls, field stores, appends and captures are all quiet.
package rowborrow

import (
	"sort"

	"graph"
)

type holder struct {
	row  []float64
	pins [][]float64
}

// A row kept across later metric calls is still a valid snapshot.
func retained(m *graph.Matrix) float64 {
	row := m.Row(0)
	d := m.Dist(1, 2)
	return d + row[3]
}

func consumedFirst(m *graph.Matrix) float64 {
	row := m.Row(0)
	sum := row[1] + row[2]
	return sum + m.Dist(1, 2)
}

// Copying out of a row and writing the copy is fine.
func copied(m *graph.Matrix) []float64 {
	row := m.Row(0)
	out := append([]float64(nil), row...)
	out[0] = 1
	_ = m.Row(1)
	return out
}

func perIteration(m *graph.Matrix) float64 {
	total := 0.0
	for u := 0; u < m.N(); u++ {
		row := m.Row(u)
		total += row[0]
	}
	return total
}

func fieldStore(m *graph.Matrix, h *holder) {
	h.row = m.Row(0)
}

// The row fieldStore keeps is still a metric row where another function
// writes through it.
func writesFieldRow(h *holder) {
	h.row[1] = 2 // want "write through metric row h.row"
}

func appended(m *graph.Matrix) [][]float64 {
	var all [][]float64
	for u := 0; u < m.N(); u++ {
		row := m.Row(u)
		all = append(all, row)
	}
	return all
}

func writesThrough(m *graph.Matrix) {
	row := m.Row(0)
	row[2] = 1 // want "write through metric row row"
}

func copiesInto(m *graph.Matrix, src []float64) {
	row := m.Row(0)
	copy(row, src) // want "copy into metric row row"
}

func goroutineCapture(m *graph.Matrix, done chan float64) {
	row := m.Row(0)
	go func() {
		done <- row[0]
	}()
}

func goroutineArg(m *graph.Matrix, sink func([]float64)) {
	row := m.Row(0)
	go sink(row)
}

func escapingClosure(m *graph.Matrix) func() float64 {
	row := m.Row(0)
	f := func() float64 { return row[0] }
	return f
}

func synchronousCallback(m *graph.Matrix, idx []int) {
	row := m.Row(0)
	sort.Slice(idx, func(i, j int) bool { return row[idx[i]] < row[idx[j]] })
}

func pinned(m *graph.Matrix) float64 {
	row := m.Row(0)
	_ = m.Row(1)
	return row[2]
}

func retainedAcrossPin(m *graph.Matrix, nodes []int) float64 {
	row := m.Row(0)
	pins := m.Pin(nil, nodes)
	return pins[0][1] + row[3]
}

// Storing a Pin result in a field and reading it across later metric
// calls are both fine, and so is replacing a slot of the caller-owned
// result slice.
func pinHeld(m *graph.Matrix, h *holder, nodes []int) float64 {
	h.pins = m.Pin(h.pins[:0], nodes)
	pins := m.Pin(nil, nodes)
	_ = m.Row(1)
	_ = m.Dist(1, 2)
	row := pins[0]
	total := row[2] + h.pins[0][1]
	for _, r := range h.pins {
		total += r[0]
	}
	pins[0] = nil
	return total
}

func writesPinnedRow(m *graph.Matrix, nodes []int) {
	pins := m.Pin(nil, nodes)
	row := pins[0]
	row[1] = 2 // want "write through metric row row"
}

func writesPinElement(m *graph.Matrix, nodes []int, src []float64) {
	pins := m.Pin(nil, nodes)
	pins[0][1] += 2    // want "write through metric row pins\\[0\\]"
	copy(pins[1], src) // want "copy into metric row pins\\[1\\]"
	for _, row := range pins {
		row[0]++ // want "write through metric row row"
	}
}

// A Pin result stored in a field by one function is still pinned where
// another function reads it, and so is one returned by a helper.
func pinInto(m *graph.Matrix, h *holder, nodes []int) {
	h.pins = m.Pin(h.pins[:0], nodes)
}

func writesFieldPin(h *holder) {
	h.pins[0][0] = 1 // want "write through metric row h.pins\\[0\\]"
}

func pinHelper(m *graph.Matrix, dst [][]float64, nodes []int) ([][]float64, int) {
	return m.Pin(dst, nodes), len(nodes)
}

func writesHelperPin(m *graph.Matrix, nodes []int) {
	pins, _ := pinHelper(m, nil, nodes)
	pins[0][0] = 1 // want "write through metric row pins\\[0\\]"
}

// Writes straight through a Row call's result.
func writesRowCall(m *graph.Matrix, src []float64) {
	m.Row(0)[1] = 2     // want "write through metric row m.Row\\(0\\)"
	copy(m.Row(1), src) // want "copy into metric row m.Row\\(1\\)"
	(m.Row(2))[0]++     // want "write through metric row \\(m.Row\\(2\\)\\)"
}

func suppressedPinWrite(m *graph.Matrix, nodes []int) {
	pins := m.Pin(nil, nodes)
	//repcheck:allow-rowborrow fixture: a test that deliberately corrupts a pinned row
	pins[0][0] = 1
}

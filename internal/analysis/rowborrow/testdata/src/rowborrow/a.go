// Fixture for the rowborrow analyzer: borrows of graph.Metric.Row that
// escape their scope are findings; borrows fully consumed before the
// next metric call, copies, loop rebinding, and synchronous callbacks
// are not. Rows held from graph.Metric.Pin may be kept anywhere but
// never written.
package rowborrow

import (
	"sort"

	"graph"
)

type holder struct {
	row  []float64
	pins [][]float64
}

// Retention across a later metric call: the borrow ends at m.Dist.
func retained(m *graph.Matrix) float64 {
	row := m.Row(0)
	d := m.Dist(1, 2)
	return d + row[3] // want "used after a later Row/Dist/Pin/AddEdge call"
}

// The false-positive shape: the row is fully consumed before the next
// metric call, so the borrow never outlives its window.
func consumedFirst(m *graph.Matrix) float64 {
	row := m.Row(0)
	sum := row[1] + row[2]
	return sum + m.Dist(1, 2)
}

// Element-spread append copies the contents — the sanctioned idiom for
// a row that must outlive the next call.
func copied(m *graph.Matrix) []float64 {
	row := m.Row(0)
	out := append([]float64(nil), row...)
	_ = m.Row(1)
	return out
}

// Re-binding on every iteration is fine: each borrow's uses precede the
// Row call of the next iteration in every execution, and the binding's
// own call is not an invalidator.
func perIteration(m *graph.Matrix) float64 {
	total := 0.0
	for u := 0; u < m.N(); u++ {
		row := m.Row(u)
		total += row[0]
	}
	return total
}

func fieldStore(m *graph.Matrix, h *holder) {
	h.row = m.Row(0) // want "stored in h.row escapes its borrowing scope"
}

func appended(m *graph.Matrix) [][]float64 {
	var all [][]float64
	for u := 0; u < m.N(); u++ {
		row := m.Row(u)
		all = append(all, row) // want "appended to a slice escapes its borrowing scope"
	}
	return all
}

func writesThrough(m *graph.Matrix) {
	row := m.Row(0)
	row[2] = 1 // want "write through borrowed row"
}

func copiesInto(m *graph.Matrix, src []float64) {
	row := m.Row(0)
	copy(row, src) // want "copy into borrowed row"
}

func goroutineCapture(m *graph.Matrix, done chan float64) {
	row := m.Row(0)
	go func() {
		done <- row[0] // want "captured by a goroutine"
	}()
}

func goroutineArg(m *graph.Matrix, sink func([]float64)) {
	row := m.Row(0)
	go sink(row) // want "passed to a goroutine"
}

func escapingClosure(m *graph.Matrix) func() float64 {
	row := m.Row(0)
	f := func() float64 { return row[0] } // want "captured by a closure that escapes"
	return f
}

// A closure passed directly as a call argument is synchronous
// (sort.Slice and friends): not a capture hazard.
func synchronousCallback(m *graph.Matrix, idx []int) {
	row := m.Row(0)
	sort.Slice(idx, func(i, j int) bool { return row[idx[i]] < row[idx[j]] })
}

// Code that deliberately leans on backend storage stability annotates
// the use.
func pinned(m *graph.Matrix) float64 {
	row := m.Row(0)
	_ = m.Row(1)
	//repcheck:allow-rowborrow fixture: pins the storage-stability guarantee of today's backends
	return row[2]
}

// A Pin may evict cached rows, so it ends an outstanding Row borrow.
func retainedAcrossPin(m *graph.Matrix, nodes []int) float64 {
	row := m.Row(0)
	pins := m.Pin(nil, nodes)
	return pins[0][1] + row[3] // want "used after a later Row/Dist/Pin/AddEdge call"
}

// Pinned rows are held, not borrowed: storing the result in a field and
// reading it across later metric calls are both fine, and so is
// replacing a slot of the caller-owned result slice.
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
	row[1] = 2 // want "write through pinned row row"
}

func writesPinElement(m *graph.Matrix, nodes []int, src []float64) {
	pins := m.Pin(nil, nodes)
	pins[0][1] += 2    // want "write through pinned row pins\\[0\\]"
	copy(pins[1], src) // want "copy into pinned row pins\\[1\\]"
	for _, row := range pins {
		row[0]++ // want "write through pinned row row"
	}
}

// A Pin result stored in a field by one function is still pinned where
// another function reads it, and so is one returned by a helper.
func pinInto(m *graph.Matrix, h *holder, nodes []int) {
	h.pins = m.Pin(h.pins[:0], nodes)
}

func writesFieldPin(h *holder) {
	h.pins[0][0] = 1 // want "write through pinned row h.pins\\[0\\]"
}

func pinHelper(m *graph.Matrix, dst [][]float64, nodes []int) ([][]float64, int) {
	return m.Pin(dst, nodes), len(nodes)
}

func writesHelperPin(m *graph.Matrix, nodes []int) {
	pins, _ := pinHelper(m, nil, nodes)
	pins[0][0] = 1 // want "write through pinned row pins\\[0\\]"
}

func suppressedPinWrite(m *graph.Matrix, nodes []int) {
	pins := m.Pin(nil, nodes)
	//repcheck:allow-rowborrow fixture: a test that deliberately corrupts a pinned row
	pins[0][0] = 1
}

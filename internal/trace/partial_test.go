package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func samplePartial() *Partial {
	return &Partial{
		Figure:  "13",
		Options: "seed=7 quick=true metric=dense",
		Cells:   4,
		Shard:   1,
		Shards:  2,
		Results: []CellResult{
			{Idx: 0, Values: []float64{1.0 / 3.0, 42}},
			{Idx: 2, Values: []float64{math.Nextafter(1, 2)}},
		},
	}
}

func TestPartialRoundTrip(t *testing.T) {
	p := samplePartial()
	var buf bytes.Buffer
	if err := WritePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Figure != p.Figure || got.Options != p.Options || got.Cells != p.Cells {
		t.Fatalf("header mangled: %+v", got)
	}
	if len(got.Results) != len(p.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(p.Results))
	}
	for i, r := range got.Results {
		if r.Idx != p.Results[i].Idx {
			t.Fatalf("result %d index %d, want %d", i, r.Idx, p.Results[i].Idx)
		}
		for j, v := range r.Values {
			// Bit-exact: the shard format must not lose precision.
			if v != p.Results[i].Values[j] {
				t.Fatalf("result %d value %d: %v != %v", i, j, v, p.Results[i].Values[j])
			}
		}
	}
}

func TestPartialValidate(t *testing.T) {
	bad := []*Partial{
		{Figure: "", Cells: 2},
		{Figure: "x", Cells: 0},
		{Figure: "x", Cells: 2, Results: []CellResult{{Idx: 2, Values: []float64{1}}}},
		{Figure: "x", Cells: 2, Results: []CellResult{{Idx: 1, Values: []float64{1}}, {Idx: 0, Values: []float64{1}}}},
		{Figure: "x", Cells: 2, Results: []CellResult{{Idx: 0, Values: []float64{1}}, {Idx: 0, Values: []float64{1}}}},
		{Figure: "x", Cells: 2, Results: []CellResult{{Idx: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad partial %d validated", i)
		}
	}
	if err := samplePartial().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadPartialRejectsGarbage(t *testing.T) {
	if _, err := ReadPartial(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPartial(strings.NewReader(`{"figure":"","cells":0}`)); err == nil {
		t.Fatal("invalid partial accepted")
	}
}

func TestMergePartials(t *testing.T) {
	a := &Partial{Figure: "f", Options: "seed=1", Cells: 4, Shard: 1, Shards: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{10}}, {Idx: 2, Values: []float64{30}}}}
	b := &Partial{Figure: "f", Options: "seed=1", Cells: 4, Shard: 2, Shards: 2,
		Results: []CellResult{{Idx: 1, Values: []float64{20}}, {Idx: 3, Values: []float64{40}}}}
	for _, order := range [][]*Partial{{a, b}, {b, a}} {
		m, err := MergePartials(order...)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Complete() {
			t.Fatalf("merge incomplete: %d of %d", len(m.Results), m.Cells)
		}
		// Deterministic regardless of input order: sorted by index.
		for i, r := range m.Results {
			if r.Idx != i || r.Values[0] != float64((i+1)*10) {
				t.Fatalf("merged cell %d = %+v", i, r)
			}
		}
	}
}

func TestMergePartialsOverlapAndConflict(t *testing.T) {
	// A shard split is a partition: a cell held by two partials is refused
	// by name, whether the copies agree bit for bit or not.
	a := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{1}}}}
	dup := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{1}}, {Idx: 1, Values: []float64{2}}}}
	conflict := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{99}}}}
	for _, other := range []*Partial{dup, conflict} {
		_, err := MergePartials(a, other)
		if err == nil {
			t.Fatal("overlapping partials accepted")
		}
		if !strings.Contains(err.Error(), "cell 0") {
			t.Fatalf("overlap error %q does not name the cell", err)
		}
	}
}

func TestMergePartialsKeepsTimings(t *testing.T) {
	a := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{1}, Nanos: 100}}}
	b := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 1, Values: []float64{2}, Nanos: 50}}}
	m, err := MergePartials(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalNanos() != 150 {
		t.Fatalf("merged timings %d, want 150", m.TotalNanos())
	}
	// A repeated cell is refused even when only its timing differs.
	dup := &Partial{Figure: "f", Options: "seed=1", Cells: 2,
		Results: []CellResult{{Idx: 0, Values: []float64{1}, Nanos: 999}}}
	if _, err := MergePartials(a, b, dup); err == nil {
		t.Fatal("timing-only overlap accepted")
	}
}

func TestMergePartialsRejectsMismatch(t *testing.T) {
	opts := "seed=1 quick=true metric=dense"
	base := &Partial{Figure: "f", Options: opts, Cells: 2}
	cases := []*Partial{
		{Figure: "g", Options: opts, Cells: 2},
		{Figure: "f", Options: "seed=2 quick=true metric=dense", Cells: 2},
		{Figure: "f", Options: "seed=1 quick=false metric=dense", Cells: 2},
		{Figure: "f", Options: "seed=1 quick=true metric=landmark:2", Cells: 2},
		{Figure: "f", Options: opts, Cells: 3},
	}
	for i, c := range cases {
		if _, err := MergePartials(base, c); err == nil {
			t.Fatalf("mismatched partial %d accepted", i)
		}
	}
	if _, err := MergePartials(); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestMissingCells(t *testing.T) {
	p := samplePartial() // cells 0 and 2 of 4 present
	if got := p.MissingCells(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("MissingCells = %v, want [1 3]", got)
	}
	full := &Partial{Figure: "13", Cells: 2, Results: []CellResult{
		{Idx: 0, Values: []float64{1}},
		{Idx: 1, Values: []float64{2}},
	}}
	if got := full.MissingCells(); got != nil {
		t.Fatalf("complete partial reported missing cells %v", got)
	}
	empty := &Partial{Figure: "13", Cells: 3}
	if got := empty.MissingCells(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("empty partial MissingCells = %v, want [0 1 2]", got)
	}
}

// FuzzMergePartials decodes two arbitrary byte strings as partial files
// and merges them. Neither step may panic. A merge of two readable
// partials must be accepted exactly when they agree on figure, options and
// grid size and hold no cell in common, and an accepted merge must hold
// every input cell once, with the values of the one input that held it,
// and survive a write and read back bit for bit.
func FuzzMergePartials(f *testing.F) {
	f.Add([]byte(`{"figure":"3","options":"seed=1","cells":4,"results":[{"idx":0,"values":[1.5]},{"idx":2,"values":[-0]}]}`),
		[]byte(`{"figure":"3","options":"seed=1","cells":4,"results":[{"idx":1,"values":[2,3],"ns":7}]}`))
	f.Add([]byte(`{"figure":"3","options":"seed=1","cells":2,"results":[{"idx":0,"values":[1]}]}`),
		[]byte(`{"figure":"3","options":"seed=1","cells":2,"results":[{"idx":0,"values":[1]}]}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pa, err := ReadPartial(bytes.NewReader(a))
		if err != nil {
			return
		}
		pb, err := ReadPartial(bytes.NewReader(b))
		if err != nil {
			return
		}
		owner := map[int]CellResult{}
		disjoint := true
		for _, p := range []*Partial{pa, pb} {
			for _, r := range p.Results {
				if _, ok := owner[r.Idx]; ok {
					disjoint = false
				}
				owner[r.Idx] = r
			}
		}
		accept := disjoint && pa.Figure == pb.Figure && pa.Options == pb.Options && pa.Cells == pb.Cells
		m, err := MergePartials(pa, pb)
		if (err == nil) != accept {
			t.Fatalf("merge returned %v, want accepted=%v", err, accept)
		}
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(m.Results) != len(owner) {
			t.Fatalf("merge holds %d cells, inputs %d", len(m.Results), len(owner))
		}
		var buf bytes.Buffer
		if err := WritePartial(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPartial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range back.Results {
			want := owner[r.Idx]
			if len(r.Values) != len(want.Values) || r.Nanos != want.Nanos || m.Results[i].Idx != r.Idx {
				t.Fatalf("merged cell %d = %+v, want %+v", r.Idx, r, want)
			}
			for j := range r.Values {
				if math.Float64bits(r.Values[j]) != math.Float64bits(want.Values[j]) {
					t.Fatalf("merged cell %d value %d = %v, want %v bit for bit", r.Idx, j, r.Values[j], want.Values[j])
				}
			}
		}
	})
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CellResult is one evaluated grid cell of a sharded experiment run: the
// cell's flat index, the values it produced, and the wall-clock the
// evaluation took. Timings are diagnostics, not results — `figures` reports
// them per shard on stderr and they never reach the reduced table, so two
// runs of the same shard may differ in Nanos while staying bit-identical in
// Values.
type CellResult struct {
	Idx    int       `json:"idx"`
	Values []float64 `json:"values"`
	Nanos  int64     `json:"ns,omitempty"`
}

// Partial is the mergeable on-disk result of evaluating a subset of an
// experiment's cell grid — the unit of work a shard (one process or one
// machine) contributes. Floats survive the JSON round trip exactly:
// encoding/json emits the shortest representation that parses back to the
// same float64, so merged tables stay byte-identical with single-process
// runs.
type Partial struct {
	// Figure names the spec the cells belong to.
	Figure string `json:"figure"`
	// Options records the experiment options the cell values depend on
	// (the spec's runner.Spec.Options, e.g. "seed=1 quick=true
	// metric=dense"); merging partials from mismatched options is an error.
	Options string `json:"options"`
	// Cells is the total grid size; all shards of one run agree on it.
	Cells int `json:"cells"`
	// Shard/Shards record which slice of the grid this partial covers
	// (1-based), for diagnostics; 0/0 on merged partials.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Results are the evaluated cells, sorted by index.
	Results []CellResult `json:"results"`
}

// Validate checks internal consistency: indices in range, sorted, unique,
// values present.
func (p *Partial) Validate() error {
	if p.Figure == "" {
		return fmt.Errorf("trace: partial without a figure name")
	}
	if p.Cells <= 0 {
		return fmt.Errorf("trace: partial %s with grid size %d", p.Figure, p.Cells)
	}
	last := -1
	for _, r := range p.Results {
		if r.Idx < 0 || r.Idx >= p.Cells {
			return fmt.Errorf("trace: partial %s cell %d outside grid of %d", p.Figure, r.Idx, p.Cells)
		}
		if r.Idx <= last {
			return fmt.Errorf("trace: partial %s cells not sorted or duplicated at %d", p.Figure, r.Idx)
		}
		if len(r.Values) == 0 {
			return fmt.Errorf("trace: partial %s cell %d without values", p.Figure, r.Idx)
		}
		last = r.Idx
	}
	return nil
}

// Complete reports whether every cell of the grid has a result.
func (p *Partial) Complete() bool {
	return len(p.Results) == p.Cells
}

// MissingCells lists the grid indices with no result, in ascending order —
// what a coverage check reports and what a resume run must evaluate. Nil
// when the partial is complete.
func (p *Partial) MissingCells() []int {
	if p.Complete() {
		return nil
	}
	missing := make([]int, 0, p.Cells-len(p.Results))
	next := 0
	for _, r := range p.Results {
		for ; next < r.Idx; next++ {
			missing = append(missing, next)
		}
		next = r.Idx + 1
	}
	for ; next < p.Cells; next++ {
		missing = append(missing, next)
	}
	return missing
}

// TotalNanos sums the recorded evaluation wall-clock of the partial's cells
// — the per-shard cell time `figures` reports on stderr.
func (p *Partial) TotalNanos() int64 {
	var total int64
	for _, r := range p.Results {
		total += r.Nanos
	}
	return total
}

// WritePartial serialises the partial as indented JSON.
func WritePartial(w io.Writer, p *Partial) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPartial parses a partial written by WritePartial.
func ReadPartial(r io.Reader) (*Partial, error) {
	var p Partial
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("trace: reading partial: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MergePartials deterministically folds the shards of one experiment run
// into a single partial: results are collected by cell index and sorted, so
// the merge order of the inputs cannot affect the output. Partials must
// agree on figure, options, and grid size, and no cell may appear in two of
// them: every supported split (modulo shards, a drain and its resume) is a
// partition, so a repeated cell means a misconfigured run.
func MergePartials(parts ...*Partial) (*Partial, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace: no partials to merge")
	}
	first := parts[0]
	merged := &Partial{Figure: first.Figure, Options: first.Options, Cells: first.Cells}
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.Figure != first.Figure {
			return nil, fmt.Errorf("trace: merging partials of %q and %q", first.Figure, p.Figure)
		}
		if p.Options != first.Options {
			return nil, fmt.Errorf("trace: partials of %s disagree on options (%q vs %q)",
				first.Figure, first.Options, p.Options)
		}
		if p.Cells != first.Cells {
			return nil, fmt.Errorf("trace: partials of %s disagree on grid size (%d vs %d)",
				first.Figure, first.Cells, p.Cells)
		}
		merged.Results = append(merged.Results, p.Results...)
	}
	sort.Slice(merged.Results, func(i, j int) bool { return merged.Results[i].Idx < merged.Results[j].Idx })
	for i := 1; i < len(merged.Results); i++ {
		if idx := merged.Results[i].Idx; idx == merged.Results[i-1].Idx {
			return nil, fmt.Errorf("trace: partials of %s both hold cell %d", first.Figure, idx)
		}
	}
	return merged, nil
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Plan is a timing-balanced cell→shard assignment for one experiment grid,
// derived from a previous run's recorded per-cell wall-clock. Index
// arithmetic (cells congruent to i-1 mod m) splits the grid evenly by
// count, but cell costs are heterogeneous — later x positions often mean
// bigger networks — so equal counts can be far from equal time. A plan
// assigns cells by longest-processing-time greedy instead, so every shard's
// predicted total is within one cell of the optimum's worst case.
//
// The plan changes only which machine evaluates which cell: every cell is
// assigned to exactly one shard, so the merged grid — and the reduced table
// — is byte-identical to a modulo split or a single-process run.
type Plan struct {
	// Figure names the spec the assignment belongs to.
	Figure string `json:"figure"`
	// Seed and Quick record the options of the run the timings came from.
	// A plan is advisory — any run of the same grid can use it — but
	// timings from a different scale (quick vs paper) balance poorly.
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick,omitempty"`
	// Cells is the grid size; Assign[idx] is the 1-based shard that
	// evaluates cell idx.
	Cells  int   `json:"cells"`
	Shards int   `json:"shards"`
	Assign []int `json:"assign"`
	// ShardNanos[i] is shard i+1's predicted total wall-clock, for
	// diagnostics.
	ShardNanos []int64 `json:"shard_ns,omitempty"`
}

// Validate checks internal consistency: one in-range shard per cell.
func (pl *Plan) Validate() error {
	if pl.Figure == "" {
		return fmt.Errorf("trace: plan without a figure name")
	}
	if pl.Cells <= 0 || pl.Shards <= 0 {
		return fmt.Errorf("trace: plan %s with %d cells over %d shards", pl.Figure, pl.Cells, pl.Shards)
	}
	if len(pl.Assign) != pl.Cells {
		return fmt.Errorf("trace: plan %s assigns %d of %d cells", pl.Figure, len(pl.Assign), pl.Cells)
	}
	for idx, sh := range pl.Assign {
		if sh < 1 || sh > pl.Shards {
			return fmt.Errorf("trace: plan %s sends cell %d to shard %d of %d", pl.Figure, idx, sh, pl.Shards)
		}
	}
	return nil
}

// ShardCells returns the cells the 1-based shard evaluates, in index order.
// The list is non-nil even when the shard is empty: to runner.Local and
// Pool.RunAll a nil cell list means the whole grid.
func (pl *Plan) ShardCells(shard int) []int {
	idxs := []int{}
	for idx, sh := range pl.Assign {
		if sh == shard {
			idxs = append(idxs, idx)
		}
	}
	return idxs
}

// PlanShards builds a timing-balanced plan from a complete partial (one
// holding every cell's result, typically the output of MergePartials over a
// previous run's shards). Cells are taken longest-first and each goes to
// the currently least-loaded shard — the classic LPT greedy. Ties break by
// cell index and shard number, so the plan is deterministic in the input
// timings. Cells without a recorded timing (older partials) sort last and
// spread by cell count instead of load, since they contribute none.
func PlanShards(p *Partial, shards int) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Complete() {
		return nil, fmt.Errorf("trace: planning %s from %d of %d cells — merge a complete run first",
			p.Figure, len(p.Results), p.Cells)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("trace: planning %s over %d shards", p.Figure, shards)
	}
	order := make([]int, len(p.Results)) // positions into p.Results, longest cell first
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := p.Results[order[a]], p.Results[order[b]]
		if ra.Nanos != rb.Nanos {
			return ra.Nanos > rb.Nanos
		}
		return ra.Idx < rb.Idx
	})
	pl := &Plan{
		Figure: p.Figure, Seed: p.Seed, Quick: p.Quick,
		Cells: p.Cells, Shards: shards,
		Assign:     make([]int, p.Cells),
		ShardNanos: make([]int64, shards),
	}
	counts := make([]int, shards)
	for _, pos := range order {
		r := p.Results[pos]
		// Least predicted load wins, ties broken by fewest assigned cells,
		// then lowest shard number. An untimed cell contributes no load, so
		// for those the priorities flip — spread by cell count first —
		// otherwise every untimed cell would chase the same least-loaded
		// shard without ever changing it.
		best := 0
		for sh := 1; sh < shards; sh++ {
			var better bool
			if r.Nanos == 0 {
				better = counts[sh] < counts[best] ||
					(counts[sh] == counts[best] && pl.ShardNanos[sh] < pl.ShardNanos[best])
			} else {
				better = pl.ShardNanos[sh] < pl.ShardNanos[best] ||
					(pl.ShardNanos[sh] == pl.ShardNanos[best] && counts[sh] < counts[best])
			}
			if better {
				best = sh
			}
		}
		pl.Assign[r.Idx] = best + 1
		pl.ShardNanos[best] += r.Nanos
		counts[best]++
	}
	return pl, nil
}

// WritePlan serialises the plan as indented JSON.
func WritePlan(w io.Writer, pl *Plan) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pl)
}

// ReadPlan parses a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var pl Plan
	if err := json.NewDecoder(r).Decode(&pl); err != nil {
		return nil, fmt.Errorf("trace: reading plan: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &pl, nil
}

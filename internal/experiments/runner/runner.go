// Package runner executes declarative experiment specifications.
//
// A Spec describes one experiment — a figure, ablation, or scenario sweep —
// as a flat grid of independent cells indexed by (x-position, variant, run).
// Every cell derives its randomness from the experiment seed and its own
// coordinates, so cells can be evaluated in any order, by any number of
// goroutines, worker processes, or machines, and still produce bit-identical
// results. A Reduce step folds the completed grid into a trace.Table; it only
// ever reads the finished grid, so the emitted table is independent of the
// execution schedule.
//
// Execution goes through a pluggable Exec backend:
//
//   - Local runs cells on a bounded goroutine pool inside the current
//     process: the whole grid, or an explicit cell list (a modulo shard
//     from ShardCells, or the cells a drained run left), whose incomplete
//     grid is persisted with Grid.Partial and merged later
//     (trace.MergePartials).
//   - Pool shares one set of workers across a whole multi-spec selection —
//     subprocesses over pipes (PipeTransport, cmd/figures -worker) or
//     remote workers over TCP (ListenTransport) — streaming cell
//     assignments. The transports differ only in where connections come
//     from (pipe slots re-dial with backoff, TCP workers dial in); every
//     connection then goes through one lifecycle: join, serve cells from
//     the shared queue, and on failure retire with the in-flight cell
//     requeued. Pool.RunAll takes the same optional cell lists.
//
// ServePool is the worker half of the pool's line protocol.
//
// Both backends record each cell's evaluation wall-clock (Grid.Nanos) as
// diagnostics: it rides along in partial files and progress logs and never
// reaches the reduced table.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Spec is the declarative description of one experiment: the grid dimensions,
// the pure cell function, and the reduction into a table.
type Spec struct {
	// Name identifies the spec across processes: a worker subprocess
	// rebuilds the spec from this name (and the experiment options), so it
	// must be stable and unique within the registry that serves it.
	Name string
	// Options identifies the experiment options the cell values depend on,
	// as one line of text (experiments.Options.String). A worker rebuilds
	// the spec from Name and Options, and Grid.Partial records Options, so
	// a merge can refuse cells evaluated under other options.
	Options string
	// Xs, Variants, Runs are the grid dimensions. A cell exists for every
	// (xi, vi, run) with xi < Xs, vi < Variants, run < Runs. Experiments
	// without a natural axis use a dimension of 1.
	Xs, Variants, Runs int
	// Width is the number of values every cell returns. Cells that arrive
	// from outside the process (partial files, worker replies) are checked
	// against it before Reduce indexes into them.
	Width int
	// Cell evaluates one grid cell. It must be deterministic in its
	// coordinates (all randomness derived from the experiment seed and
	// (xi, vi, run)) and free of shared mutable state: cells run
	// concurrently and possibly in different processes.
	Cell func(xi, vi, run int) ([]float64, error)
	// Reduce folds a complete grid into the experiment's table. It runs
	// once, after every cell finished, and must depend only on the grid
	// contents — never on evaluation order or timing.
	Reduce func(g *Grid) (*trace.Table, error)
}

// Validate checks the spec is well-formed.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("runner: nil spec")
	}
	if s.Name == "" {
		return fmt.Errorf("runner: spec without a name")
	}
	if s.Xs <= 0 || s.Variants <= 0 || s.Runs <= 0 || s.Width <= 0 {
		return fmt.Errorf("runner: spec %s has degenerate grid %dx%dx%d of width %d", s.Name, s.Xs, s.Variants, s.Runs, s.Width)
	}
	if s.Cell == nil || s.Reduce == nil {
		return fmt.Errorf("runner: spec %s missing cell or reduce", s.Name)
	}
	return nil
}

// checkValues rejects a cell result that is not Width values wide: a cell
// of another grid, or a corrupted one.
func (s *Spec) checkValues(idx int, values []float64) error {
	if len(values) != s.Width {
		return fmt.Errorf("runner: spec %s cell %d has %d values, want %d", s.Name, idx, len(values), s.Width)
	}
	return nil
}

// Cells returns the total number of grid cells.
func (s *Spec) Cells() int { return s.Xs * s.Variants * s.Runs }

// Index flattens grid coordinates into a cell index.
func (s *Spec) Index(xi, vi, run int) int {
	return (xi*s.Variants+vi)*s.Runs + run
}

// Coords inverts Index.
func (s *Spec) Coords(idx int) (xi, vi, run int) {
	run = idx % s.Runs
	idx /= s.Runs
	return idx / s.Variants, idx % s.Variants, run
}

// Grid holds cell results. A nil entry is a cell that has not been evaluated
// (shard runs produce deliberately incomplete grids). Alongside each result
// the grid records the cell's evaluation wall-clock, for diagnostics only.
type Grid struct {
	spec  *Spec
	cells [][]float64
	nanos []int64
}

// NewGrid returns an empty grid for the spec.
func NewGrid(s *Spec) *Grid {
	return &Grid{spec: s, cells: make([][]float64, s.Cells()), nanos: make([]int64, s.Cells())}
}

// SetTimed stores a cell result and its evaluation wall-clock.
func (g *Grid) SetTimed(idx int, values []float64, nanos int64) error {
	if idx < 0 || idx >= len(g.cells) {
		return fmt.Errorf("runner: cell index %d outside grid of %d cells", idx, len(g.cells))
	}
	if err := g.spec.checkValues(idx, values); err != nil {
		return err
	}
	g.cells[idx] = values
	g.nanos[idx] = nanos
	return nil
}

// Nanos returns the recorded evaluation wall-clock of one cell (0 if the
// cell is missing or was stored untimed).
func (g *Grid) Nanos(idx int) int64 { return g.nanos[idx] }

// Cell returns the result of one cell (nil if missing).
func (g *Grid) Cell(xi, vi, run int) []float64 {
	return g.cells[g.spec.Index(xi, vi, run)]
}

// Value returns the first (usually only) value of a cell.
func (g *Grid) Value(xi, vi, run int) float64 {
	return g.Cell(xi, vi, run)[0]
}

// Runs gathers the first value of every run of one (x, variant) pair, in run
// order — the sample the sweep figures average.
func (g *Grid) Runs(xi, vi int) []float64 {
	return g.RunsAt(xi, vi, 0)
}

// RunsAt gathers component j of every run of one (x, variant) pair, in run
// order, for cells that return several values (cost breakdowns, paired
// algorithm totals).
func (g *Grid) RunsAt(xi, vi, j int) []float64 {
	out := make([]float64, g.spec.Runs)
	for run := 0; run < g.spec.Runs; run++ {
		out[run] = g.Cell(xi, vi, run)[j]
	}
	return out
}

// Complete reports an error naming the first missing cell, if any.
func (g *Grid) Complete() error {
	for idx, c := range g.cells {
		if c == nil {
			xi, vi, run := g.spec.Coords(idx)
			return fmt.Errorf("runner: spec %s missing cell %d (x=%d variant=%d run=%d)",
				g.spec.Name, idx, xi, vi, run)
		}
	}
	return nil
}

// Partial converts the grid's evaluated cells into a mergeable partial
// result under the spec's Options; shard/shards record provenance for
// diagnostics.
func (g *Grid) Partial(shard, shards int) *trace.Partial {
	p := &trace.Partial{
		Figure:  g.spec.Name,
		Options: g.spec.Options,
		Cells:   g.spec.Cells(),
		Shard:   shard,
		Shards:  shards,
	}
	for idx, c := range g.cells {
		if c != nil {
			p.Results = append(p.Results, trace.CellResult{Idx: idx, Values: c, Nanos: g.nanos[idx]})
		}
	}
	return p
}

// FromPartial rebuilds a grid from a partial result. The partial must belong
// to the spec (same name and grid size), and every cell must be Width
// values wide.
func FromPartial(s *Spec, p *trace.Partial) (*Grid, error) {
	if p.Figure != s.Name {
		return nil, fmt.Errorf("runner: partial for %q cannot fill spec %q", p.Figure, s.Name)
	}
	if p.Cells != s.Cells() {
		return nil, fmt.Errorf("runner: partial has %d cells, spec %s has %d", p.Cells, s.Name, s.Cells())
	}
	g := NewGrid(s)
	for _, r := range p.Results {
		if err := g.SetTimed(r.Idx, r.Values, r.Nanos); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Exec evaluates a spec's cells and returns the (possibly partial) grid.
type Exec interface {
	Run(s *Spec) (*Grid, error)
}

// Run executes the spec on the backend (Local by default), checks the grid
// is complete, and reduces it to the experiment's table.
func Run(s *Spec, e Exec) (*trace.Table, error) {
	if e == nil {
		e = Local{}
	}
	g, err := Collect(s, e)
	if err != nil {
		return nil, err
	}
	return Reduce(s, g)
}

// Collect executes the spec on the backend and checks every cell was
// evaluated, without reducing — for callers that read the raw grid.
func Collect(s *Spec, e Exec) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if e == nil {
		e = Local{}
	}
	g, err := e.Run(s)
	if err != nil {
		return nil, err
	}
	if err := g.Complete(); err != nil {
		return nil, err
	}
	return g, nil
}

// Reduce folds a complete grid into the spec's table.
func Reduce(s *Spec, g *Grid) (*trace.Table, error) {
	if err := g.Complete(); err != nil {
		return nil, err
	}
	return s.Reduce(g)
}

// Local evaluates cells on a bounded worker pool in the current process.
type Local struct {
	// Workers bounds the number of concurrently evaluating goroutines;
	// 0 selects GOMAXPROCS. At most Workers goroutines are ever started —
	// cells queue, they do not each get a goroutine.
	Workers int
	// Cells, when non-nil, restricts the run to these flat cell indices
	// (in range, no repeats); the resulting grid is incomplete by design.
	// Nil evaluates the whole grid.
	Cells []int
}

// Run implements Exec.
func (l Local) Run(s *Spec) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	idxs, err := cellList(s, l.Cells)
	if err != nil {
		return nil, err
	}
	return runCells(s, idxs, l.Workers)
}

// cellList resolves an optional cell list against the spec's grid — the
// one check Local and Pool.RunAll share: nil selects every cell in index
// order; an explicit list must stay in range and repeat no index.
func cellList(s *Spec, idxs []int) ([]int, error) {
	if idxs == nil {
		idxs = make([]int, s.Cells())
		for i := range idxs {
			idxs[i] = i
		}
		return idxs, nil
	}
	seen := make(map[int]bool, len(idxs))
	for _, idx := range idxs {
		if idx < 0 || idx >= s.Cells() {
			return nil, fmt.Errorf("runner: cell list index %d outside grid of %d cells", idx, s.Cells())
		}
		if seen[idx] {
			return nil, fmt.Errorf("runner: cell list repeats index %d", idx)
		}
		seen[idx] = true
	}
	return idxs, nil
}

// runCells evaluates the given cells with at most `workers` goroutines and
// stores the results by index. After any cell fails, still-queued cells are
// skipped — the grid is doomed anyway, and a paper-scale grid would
// otherwise burn minutes of compute before reporting. The lowest-indexed
// recorded error wins the report.
func runCells(s *Spec, idxs []int, workers int) (*Grid, error) {
	g := NewGrid(s)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}
	errs := make([]error, s.Cells())
	var failed atomic.Bool
	eval := func(idx int) {
		if failed.Load() {
			return
		}
		xi, vi, run := s.Coords(idx)
		start := time.Now() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
		v, err := s.Cell(xi, vi, run)
		if err != nil {
			errs[idx] = err
			failed.Store(true)
			return
		}
		if err := s.checkValues(idx, v); err != nil {
			errs[idx] = err
			failed.Store(true)
			return
		}
		g.cells[idx] = v
		g.nanos[idx] = time.Since(start).Nanoseconds() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
	}
	if workers <= 1 {
		for _, idx := range idxs {
			eval(idx)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for idx := range ch {
					eval(idx)
				}
			}()
		}
		for _, idx := range idxs {
			ch <- idx
		}
		close(ch)
		wg.Wait()
	}
	for _, idx := range idxs {
		if errs[idx] != nil {
			xi, vi, run := s.Coords(idx)
			return nil, fmt.Errorf("runner: spec %s cell (x=%d variant=%d run=%d): %w",
				s.Name, xi, vi, run, errs[idx])
		}
	}
	return g, nil
}

// ShardCells returns the flat cell indexes of the 1-based index-th of
// total modulo shards over a grid of cells cells — the slicing rule both
// Local and Pool.RunAll shard runs use, so they cover the same cells. The
// list is non-nil even when empty: a nil list means the whole grid.
func ShardCells(cells, index, total int) ([]int, error) {
	if total <= 0 || index < 1 || index > total {
		return nil, fmt.Errorf("runner: invalid shard %d/%d", index, total)
	}
	idxs := []int{}
	for idx := index - 1; idx < cells; idx += total {
		idxs = append(idxs, idx)
	}
	return idxs, nil
}

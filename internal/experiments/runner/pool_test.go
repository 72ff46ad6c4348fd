package runner

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// testWorkerCommand re-invokes this test binary as a pool worker (via the
// TestMain hook); env holds extra environment entries for the next spawn.
func testWorkerCommand(t testing.TB, extraEnv func() []string) func() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func() (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "RUNNER_TEST_WORKER=1")
		if extraEnv != nil {
			cmd.Env = append(cmd.Env, extraEnv()...)
		}
		cmd.Stderr = os.Stderr
		return cmd, nil
	}
}

// pipePool starts a pool of n subprocess slots with the default Config.
func pipePool(n int, command func() (*exec.Cmd, error)) *Pool {
	return NewPool(&PipeTransport{N: n, Command: command}, Config{})
}

func namedSpec(t testing.TB, name string) *Spec {
	s, err := buildTestSpec(name, "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoolPipelinesAcrossSpecs runs three grids through one shared pool and
// checks every table is bit-identical to its Local run and that grids are
// emitted in spec order — the cross-figure pipelining contract.
func TestPoolPipelinesAcrossSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	specs := []*Spec{
		namedSpec(t, "grid-3x2x2"),
		namedSpec(t, "grid-2x2x3"),
		namedSpec(t, "grid-4x1x2"),
	}
	pool := pipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	var order []int
	grids := make([]*Grid, len(specs))
	if _, err := pool.RunAll(specs, nil, func(i int, g *Grid) error {
		order = append(order, i)
		grids[i] = g
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("grids emitted in order %v", order)
	}
	for i, s := range specs {
		got, err := Reduce(s, grids[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(s, Local{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %s pooled table differs from local run", s.Name)
		}
	}
	// The same pool must serve a second selection (the subprocesses are
	// still up and switch specs on demand).
	s := namedSpec(t, "grid-2x3x2")
	g, err := pool.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("second-selection table differs from local run")
	}
}

// TestPoolRequeuesDeadWorker is the worker-death regression test: the first
// worker subprocess exits after three responses, mid-grid; the coordinator
// must respawn the slot, requeue the in-flight cell, and finish with a grid
// bit-identical to the Local run instead of aborting.
func TestPoolRequeuesDeadWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-4x3x2")
	var spawned atomic.Int64
	pool := pipePool(2, testWorkerCommand(t, func() []string {
		if spawned.Add(1) == 1 {
			return []string{"RUNNER_TEST_FAULT=exit:3"}
		}
		return nil
	}))
	defer pool.Close()
	g, err := pool.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("requeued table differs from local run")
	}
	if n := spawned.Load(); n < 2 {
		t.Fatalf("%d workers spawned; the dead worker was never replaced", n)
	}
}

// TestPoolFailsDeterministicCell pins the other side of the retry budget: a
// cell that fails on every attempt must fail the run after retries, naming
// the cell, instead of being requeued forever.
func TestPoolFailsDeterministicCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "failcell-3x1x1") // cell index 1 (xi=1) always errors
	pool := pipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	_, err := pool.Run(s)
	if err == nil {
		t.Fatal("deterministically failing cell did not fail the run")
	}
	for _, want := range []string{"failcell-3x1x1", "cell 1", "3 attempts", "kaput"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// The pool survives the failed run: a healthy spec still completes.
	g, err := pool.Run(namedSpec(t, "grid-2x2x1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRetriesSpawnFailure treats a failed spawn like any other worker
// failure: it consumes one attempt and the cell is requeued, so a transient
// spawn error does not abort the grid.
func TestPoolRetriesSpawnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-2x2x1")
	healthy := testWorkerCommand(t, nil)
	var calls atomic.Int64
	pool := pipePool(1, func() (*exec.Cmd, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient spawn failure")
		}
		return healthy()
	})
	defer pool.Close()
	g, err := pool.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolCommandThatNeverStarts: a worker command that cannot spawn fails
// every attempt of the cell waiting for it, and the run fails with an error
// that names the spawn cause — a missing binary, or no command at all.
func TestPoolCommandThatNeverStarts(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	for _, tc := range []struct {
		command func() (*exec.Cmd, error)
		cause   string
	}{
		{func() (*exec.Cmd, error) { return exec.Command(missing), nil }, missing},
		{nil, "no worker command"},
	} {
		pool := NewPool(&PipeTransport{N: 1, Command: tc.command},
			Config{sleep: func(time.Duration, <-chan struct{}) {}})
		_, err := pool.Run(namedSpec(t, "grid-2x1x1"))
		pool.Close()
		if err == nil {
			t.Fatal("run succeeded without a worker")
		}
		for _, want := range []string{"cell 0", "3 attempts", "spawning worker", tc.cause} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
	}
}

// TestPoolRecordsTimings checks the worker-side wall-clock reaches the
// coordinator's grid and its partial, where shard planning picks it up.
func TestPoolRecordsTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "work-2x2x1-200000")
	pool := pipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	g, err := pool.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for idx := 0; idx < s.Cells(); idx++ {
		total += g.Nanos(idx)
	}
	if total <= 0 {
		t.Fatal("no cell timings recorded by the pooled run")
	}
	p := g.Partial(0, 0)
	if p.TotalNanos() != total {
		t.Fatalf("partial carries %d ns, grid recorded %d", p.TotalNanos(), total)
	}
}

// TestPoolRejectsUnserializableSpecName keeps spec names inside what the
// line protocol can carry.
func TestPoolRejectsUnserializableSpecName(t *testing.T) {
	s := testSpec(1, 1, 1)
	s.Name = "has space"
	pool := pipePool(1, testWorkerCommand(t, nil))
	defer pool.Close()
	if _, err := pool.Run(s); err == nil {
		t.Fatal("spec name with whitespace accepted")
	}
}

// TestPoolClosedRefusesRuns pins Close semantics.
func TestPoolClosedRefusesRuns(t *testing.T) {
	pool := pipePool(1, testWorkerCommand(t, nil))
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Run(testSpec(1, 1, 1)); err == nil {
		t.Fatal("closed pool accepted a run")
	}
}

// TestCellSetMatchesShard pins Local's explicit-cell-list path (the
// planned-shard and resume runs): listed cells match the whole-grid run,
// unlisted cells stay missing, an empty list evaluates nothing, and
// invalid lists are rejected.
func TestCellSetMatchesShard(t *testing.T) {
	s := testSpec(5, 2, 3)
	want, err := Local{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	idxs := []int{29, 1, 4, 17}
	got, err := Local{Cells: idxs}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[int]bool{29: true, 1: true, 4: true, 17: true}
	for idx := 0; idx < s.Cells(); idx++ {
		xi, vi, run := s.Coords(idx)
		switch {
		case listed[idx] && !reflect.DeepEqual(got.Cell(xi, vi, run), want.Cell(xi, vi, run)):
			t.Fatalf("listed cell %d differs from the whole-grid run", idx)
		case !listed[idx] && got.Cell(xi, vi, run) != nil:
			t.Fatalf("unlisted cell %d was evaluated", idx)
		}
	}
	empty, err := Local{Cells: []int{}}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(empty.Partial(0, 0).Results); n != 0 {
		t.Fatalf("empty cell list evaluated %d cells", n)
	}
	for _, bad := range [][]int{{-1}, {s.Cells()}, {1, 1}} {
		if _, err := (Local{Cells: bad}).Run(s); err == nil {
			t.Fatalf("cell list %v accepted", bad)
		}
	}
}

// TestLocalRecordsTimings checks the in-process backends record per-cell
// wall-clock and that it survives the partial round trip (the input to
// timing-balanced shard planning).
func TestLocalRecordsTimings(t *testing.T) {
	s := namedSpec(t, "work-3x2x2-200000")
	g, err := Local{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Partial(0, 0)
	if p.TotalNanos() <= 0 {
		t.Fatal("local run recorded no cell timings")
	}
	back, err := FromPartial(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < s.Cells(); idx++ {
		if back.Nanos(idx) != g.Nanos(idx) {
			t.Fatalf("cell %d timing %d mangled to %d in the partial round trip", idx, g.Nanos(idx), back.Nanos(idx))
		}
	}
	merged, err := trace.MergePartials(p)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalNanos() != p.TotalNanos() {
		t.Fatalf("merge dropped timings: %d != %d", merged.TotalNanos(), p.TotalNanos())
	}
}

// benchPoolSpecs is a three-figure selection with enough per-cell work that
// worker boot and figure-boundary idle time are visible against it.
func benchPoolSpecs(b *testing.B) []*Spec {
	return []*Spec{
		namedSpec(b, "work-4x3x2-400000"),
		namedSpec(b, "work-3x2x4-400000"),
		namedSpec(b, "work-4x2x3-400000"),
	}
}

// BenchmarkPoolPipelined is the shared-pool path cmd/figures uses for a
// multi-figure -procs selection: one pool, workers survive figure
// boundaries.
func BenchmarkPoolPipelined(b *testing.B) {
	specs := benchPoolSpecs(b)
	cmd := testWorkerCommand(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := pipePool(2, cmd)
		if _, err := pool.RunAll(specs, nil, nil); err != nil {
			b.Fatal(err)
		}
		pool.Close()
	}
}

// BenchmarkPoolPerFigure is the pre-pool behaviour: every figure boots and
// drains its own worker pool, so subprocesses respawn at each boundary and
// workers idle while a figure's tail cells finish.
func BenchmarkPoolPerFigure(b *testing.B) {
	specs := benchPoolSpecs(b)
	cmd := testWorkerCommand(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			pool := pipePool(2, cmd)
			if _, err := pool.Run(s); err != nil {
				b.Fatal(err)
			}
			pool.Close()
		}
	}
}

// TestShardCellsMatchesShard pins the exported slicing helper to the
// modulo rule, so the local and pooled shard paths cover the same cells.
func TestShardCellsMatchesShard(t *testing.T) {
	for total := 1; total <= 4; total++ {
		covered := map[int]bool{}
		for idx := 1; idx <= total; idx++ {
			cells, err := ShardCells(30, idx, total)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if covered[c] {
					t.Fatalf("total=%d: cell %d covered twice", total, c)
				}
				covered[c] = true
				if c%total != idx-1 {
					t.Fatalf("total=%d shard %d: cell %d off the modulo slice", total, idx, c)
				}
			}
		}
		if len(covered) != 30 {
			t.Fatalf("total=%d: %d of 30 cells covered", total, len(covered))
		}
	}
	if _, err := ShardCells(10, 0, 2); err == nil {
		t.Fatal("shard index 0 accepted")
	}
	if _, err := ShardCells(10, 3, 2); err == nil {
		t.Fatal("shard index beyond total accepted")
	}
}

// TestPoolRunCellsMatchesCellSet runs one shard's cells through the worker
// pool and the other through Local's cell list, merges the two partials,
// and checks the reduced table is bit-identical to a whole-grid Local run
// — the -shard/-procs composition contract.
func TestPoolRunCellsMatchesCellSet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-3x2x2")
	pool := pipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	idxs1, err := ShardCells(s.Cells(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	idxs2, err := ShardCells(s.Cells(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	grids, err := pool.RunAll([]*Spec{s}, [][]int{idxs1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pooled := grids[0]
	local, err := Local{Cells: idxs2}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := trace.MergePartials(
		pooled.Partial(1, 2), local.Partial(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPartial(s, merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled shard + local shard differ from the Local run")
	}
	for _, bad := range [][][]int{{{-1}}, {{1, 1}}, {nil, nil}} {
		if _, err := pool.RunAll([]*Spec{s}, bad, nil); err == nil {
			t.Fatalf("cell lists %v accepted", bad)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

func TestMain(m *testing.M) {
	// Re-executed as the figures command (figuresCmd): run main on the
	// arguments given, as the built binary would.
	if os.Getenv("FIGURES_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSelectFigures(t *testing.T) {
	cases := []struct {
		only string
		want []string
	}{
		{"", allFigures()},
		{"3,11,rocketfuel", []string{"3", "11", "rocketfuel"}},
		{" 15 , 16 ", []string{"15", "16"}},
		{"ablations", ablations()},
		{"queue,ablation-theta", []string{"ablation-queue", "ablation-theta"}},
		{"all", allFigures()},
		{"variants,compare-scenarios", []string{"variants", "compare-scenarios"}},
		{"12,,13", []string{"12", "13"}},
	}
	for _, c := range cases {
		got, err := selectFigures(c.only)
		if err != nil {
			t.Fatalf("-only=%q: %v", c.only, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("-only=%q selected %v, want %v", c.only, got, c.want)
		}
	}
	for _, bad := range []string{"nope", "20", "3,bogus", ","} {
		if _, err := selectFigures(bad); err == nil {
			t.Fatalf("-only=%q accepted", bad)
		}
	}
	// Every selectable name must resolve in the spec registry.
	for _, name := range append(allFigures(), ablations()...) {
		if _, err := experiments.NewSpec(name, experiments.Options{Quick: true}); err != nil {
			t.Fatalf("selectable figure %q not buildable: %v", name, err)
		}
	}
}

func TestParseShard(t *testing.T) {
	if i, m, err := parseShard(""); i != 0 || m != 0 || err != nil {
		t.Fatalf("empty shard: %d/%d %v", i, m, err)
	}
	if i, m, err := parseShard("2/3"); i != 2 || m != 3 || err != nil {
		t.Fatalf("2/3: %d/%d %v", i, m, err)
	}
	for _, bad := range []string{"0/2", "3/2", "x/2", "2/x", "2", "/", "-1/2"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Fatalf("shard %q accepted", bad)
		}
	}
}

func TestWriteCSVEmission(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Quick: true, Seed: 7}
	tab := localTable(t, "12", o)
	if err := writeCSV(dir, "12", tab); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure-12.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(tab.X)+1 {
		t.Fatalf("%d CSV lines for %d x positions", len(lines), len(tab.X))
	}
	if lines[0] != "servers,OFFSTAT" {
		t.Fatalf("CSV header %q", lines[0])
	}
	// Full precision: the first data row must parse back to the exact value.
	fields := strings.Split(lines[1], ",")
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if v != tab.Series[0].Values[0] {
		t.Fatalf("CSV value %v != table value %v", v, tab.Series[0].Values[0])
	}
}

// TestWorkerModeRoundTrip spawns this test binary as real -worker
// subprocesses on a quick figure and requires the multi-process table to be
// identical to the in-process one — the cmd-level contract of -procs.
func TestWorkerModeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.NewPool(&runner.PipeTransport{N: 2, Command: testWorkerCmd(t, "")}, runner.Config{})
	defer pool.Close()
	got, err := runner.Run(sp, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker-mode table differs from in-process run:\n got %+v\nwant %+v", got, want)
	}
}

// TestWorkerModeFaultInjection kills the first worker subprocess after two
// responses and requires the requeue path to still produce a table
// identical to the in-process run — the cmd-level contract of the
// fault-tolerant pool.
func TestWorkerModeFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	var spawned atomic.Int64
	healthy := testWorkerCmd(t, "")
	faulty := testWorkerCmd(t, "exit:2")
	pool := runner.NewPool(&runner.PipeTransport{N: 2, Command: func() (*exec.Cmd, error) {
		if spawned.Add(1) == 1 {
			return faulty()
		}
		return healthy()
	}}, runner.Config{})
	defer pool.Close()
	g, err := pool.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Reduce(sp, g)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fault-injected table differs from in-process run")
	}
	if n := spawned.Load(); n < 2 {
		t.Fatalf("fault injection spawned %d workers; the dying worker was never replaced", n)
	}
}

// TestWriteFileAtomic pins the no-truncated-partials property: a failed
// write leaves no destination file and no temp residue; a successful one
// replaces the destination in full.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial garbage")
		return fmt.Errorf("simulated crash")
	}); err == nil {
		t.Fatal("write error not propagated")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left %s behind", path)
	}
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "complete")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "complete" {
		t.Fatalf("read back %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp residue in %s: %v", dir, entries)
	}
}

// TestShardMergeRoundTrip drives the shard/partial/merge path through the
// same helpers main uses and checks the merged table is bit-identical.
func TestShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := runShard(sp, i, 2, dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mergeShards(sp, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard+merge table differs from in-process run")
	}
	// Mismatched options must be refused, not silently reduced.
	other, err := experiments.NewSpec("13", experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mergeShards(other, dir); err == nil {
		t.Fatal("merge accepted partials from a different seed")
	}
	// A missing shard must be reported as incomplete.
	if err := os.Remove(filepath.Join(dir, shardFile("13", 1, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeShards(sp, dir); err == nil {
		t.Fatal("merge reduced an incomplete grid")
	}
}

// TestMergeReportsMissingCells pins the coverage check's shape: a merge
// over incomplete partials must name the missing cell indices.
func TestMergeReportsMissingCells(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := runShard(sp, 2, 2, dir, nil); err != nil { // shard 2 only
		t.Fatal(err)
	}
	_, err = mergeShards(sp, dir)
	if err == nil {
		t.Fatal("merge reduced an incomplete grid")
	}
	if !strings.Contains(err.Error(), "missing cells") || !strings.Contains(err.Error(), "0") {
		t.Fatalf("coverage error %q does not list the missing cells", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("coverage error %q does not point at -resume", err)
	}
}

// TestResumeFillsMissingCells finishes a half-covered run with -resume and
// checks the merge is then bit-identical to the in-process table — the
// drain-partial recovery recipe end to end.
func TestResumeFillsMissingCells(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := runShard(sp, 1, 2, dir, nil); err != nil { // half the grid
		t.Fatal(err)
	}
	if err := runResume(sp, dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "13.shard-resume.json")); err != nil {
		t.Fatalf("resume partial not written: %v", err)
	}
	got, err := mergeShards(sp, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed merge differs from in-process run")
	}
	// A second resume over the now-complete partials is a no-op, not an
	// error — and must not disturb the merge.
	if err := runResume(sp, dir, nil); err != nil {
		t.Fatalf("resume over complete partials: %v", err)
	}
	if got2, err := mergeShards(sp, dir); err != nil || !reflect.DeepEqual(got2, want) {
		t.Fatalf("merge after no-op resume changed: %v", err)
	}
}

// TestWorkerModeFaultMatrix drives every -faultinject mode through the
// real worker subprocess (via FIGURES_FAULT, as workerCommand sets it) and
// requires the table to stay identical to the in-process run: each fault
// converts into requeue-and-recover, never into wrong output.
func TestWorkerModeFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	for _, mode := range []string{"exit:2", "garbage:2", "disconnect:2", "slow:1:50ms", "wedge:2:2s"} {
		t.Run(mode, func(t *testing.T) {
			fault, err := runner.ParseFault(mode)
			if err != nil {
				t.Fatal(err)
			}
			var spawned atomic.Int64
			healthy := testWorkerCmd(t, "")
			faulty := testWorkerCmd(t, fault.String())
			// One slot, so the faulty first worker necessarily serves the
			// cell that arms its fault.
			pool := runner.NewPool(&runner.PipeTransport{
				N: 1,
				Command: func() (*exec.Cmd, error) {
					if spawned.Add(1) == 1 {
						return faulty()
					}
					return healthy()
				},
			}, runner.Config{
				// A firm deadline so the wedge mode converts in test time.
				Deadline: 500 * time.Millisecond,
			})
			defer pool.Close()
			g, err := pool.Run(sp)
			if err != nil {
				t.Fatalf("fault %s: %v", mode, err)
			}
			got, err := runner.Reduce(sp, g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fault %s: table differs from in-process run", mode)
			}
			// Every mode except slow breaks the worker; the pool must have
			// replaced it.
			if mode != "slow:1:50ms" && spawned.Load() < 2 {
				t.Fatalf("fault %s: spawned %d workers, the faulty one was never replaced", mode, spawned.Load())
			}
		})
	}
}

// TestTCPWorkerTakesCoordinatorOptions serves a quick seed-1 dense grid
// from a TCP worker started with -seed 7 -metric landmark:2. The grids have
// the same shape, so only the options can tell the cells apart: the worker
// must evaluate every cell under the coordinator's options, so the table
// matches the in-process seed-1 run.
func TestTCPWorkerTakesCoordinatorOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	o := experiments.Options{Quick: true, Seed: 1}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := runner.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.NewPool(tr, runner.Config{})
	defer pool.Close()
	var workerLog strings.Builder
	worker := figuresCmd("-quick", "-seed", "7", "-metric", "landmark:2", "-worker", "-connect", tr.Addr())
	worker.Stderr = &workerLog
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	got, runErr := runner.Run(sp, pool)
	if runErr != nil {
		worker.Process.Kill()
	}
	pool.Close()
	waitErr := worker.Wait()
	if runErr != nil || waitErr != nil {
		t.Fatalf("run: %v, worker: %v\nworker log:\n%s", runErr, waitErr, workerLog.String())
	}
	if want := localTable(t, "13", o); !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP worker table differs from the in-process seed-1 run:\n got %+v\nwant %+v", got, want)
	}
}

// TestMergeRefusesMetricMismatch merges a landmark:2 shard with a dense one
// through the command: the merge must fail naming both options, not print
// a table that matches neither run.
func TestMergeRefusesMetricMismatch(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quick", "-seed", "1", "-only", "3", "-partials", dir}
	for _, extra := range [][]string{{"-shard", "1/2", "-metric", "landmark:2"}, {"-shard", "2/2"}} {
		if _, stderr, err := runFigures(t, slices.Concat(base, extra)...); err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, stderr)
		}
	}
	stdout, stderr, err := runFigures(t, slices.Concat(base, []string{"-merge"})...)
	if err == nil {
		t.Fatalf("merge of a landmark and a dense shard succeeded:\n%s", stdout)
	}
	if !strings.Contains(stderr, "metric=landmark:2") || !strings.Contains(stderr, "metric=dense") {
		t.Fatalf("merge error does not name both metrics:\n%s", stderr)
	}
}

// TestMergeRefusesShortCell cuts one cell of a figure-6 partial to a single
// value: the merge must fail with an error naming the spec and the cell,
// not panic in the figure's Reduce.
func TestMergeRefusesShortCell(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quick", "-seed", "1", "-only", "6", "-partials", dir}
	if _, stderr, err := runFigures(t, slices.Concat(base, []string{"-shard", "1/1"})...); err != nil {
		t.Fatalf("shard: %v\n%s", err, stderr)
	}
	path := filepath.Join(dir, shardFile("6", 1, 1))
	p := readPartialFile(t, path)
	p.Results[0].Values = p.Results[0].Values[:1]
	if err := writeFileAtomic(path, func(w io.Writer) error { return trace.WritePartial(w, p) }); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runFigures(t, slices.Concat(base, []string{"-merge"})...)
	if err == nil || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "spec 6 cell 0") {
		t.Fatalf("merge of a short cell: exit %v, want an error naming spec 6 cell 0:\n%s", err, stderr)
	}
}

// TestDrainedNextStep pins the post-drain hint: -resume is suggested only
// when the drain actually left cells unevaluated; a drain that landed
// after the last cell needs only the -merge.
func TestDrainedNextStep(t *testing.T) {
	withMissing := drainedNextStep(3, "parts")
	if !strings.Contains(withMissing, "-resume") || !strings.Contains(withMissing, "3 cells") {
		t.Fatalf("missing-cells hint lost the -resume pointer: %q", withMissing)
	}
	complete := drainedNextStep(0, "parts")
	if strings.Contains(complete, "-resume") {
		t.Fatalf("complete drain still suggests -resume: %q", complete)
	}
	if !strings.Contains(complete, "-merge") {
		t.Fatalf("complete drain lost the -merge pointer: %q", complete)
	}
}

// TestRunShardOnPoolMatchesLocal shards a quick figure across the worker
// pool (-shard composed with -procs) and in-process, and checks the
// partial files carry identical cell values.
func TestRunShardOnPoolMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	o := experiments.Options{Quick: true, Seed: 1}
	sp, err := experiments.NewSpec("3", o)
	if err != nil {
		t.Fatal(err)
	}
	poolDir := t.TempDir()
	localDir := t.TempDir()
	pool := runner.NewPool(&runner.PipeTransport{N: 2, Command: testWorkerCmd(t, "")}, runner.Config{})
	defer pool.Close()
	if err := runShard(sp, 1, 2, poolDir, pool); err != nil {
		t.Fatal(err)
	}
	if err := runShard(sp, 1, 2, localDir, nil); err != nil {
		t.Fatal(err)
	}
	got := readPartialFile(t, filepath.Join(poolDir, shardFile("3", 1, 2)))
	want := readPartialFile(t, filepath.Join(localDir, shardFile("3", 1, 2)))
	if len(got.Results) != len(want.Results) {
		t.Fatalf("pooled shard has %d cells, local has %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].Idx != want.Results[i].Idx ||
			!reflect.DeepEqual(got.Results[i].Values, want.Results[i].Values) {
			t.Fatalf("cell %d differs between pooled and local shard", got.Results[i].Idx)
		}
	}
}

// localTable runs the named figure on the in-process runner, the
// reference every worker, pool and shard path must reproduce.
func localTable(t *testing.T, name string, o experiments.Options) *trace.Table {
	t.Helper()
	sp, err := experiments.NewSpec(name, o)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := runner.Run(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// figuresCmd re-invokes this test binary as the figures command on args
// (via the TestMain hook).
func figuresCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
	return cmd
}

// runFigures runs the figures command on args and returns its stdout and
// stderr; err is the exit status.
func runFigures(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errOut strings.Builder
	cmd := figuresCmd(args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// testWorkerCmd spawns pool workers as workerCommand does; fault, if
// non-empty, is passed in FIGURES_FAULT exactly as workerCommand passes
// -faultinject.
func testWorkerCmd(t *testing.T, fault string) func() (*exec.Cmd, error) {
	return func() (*exec.Cmd, error) {
		cmd := figuresCmd("-worker")
		if fault != "" {
			cmd.Env = append(cmd.Env, "FIGURES_FAULT="+fault)
		}
		cmd.Stderr = os.Stderr
		return cmd, nil
	}
}

func readPartialFile(t *testing.T, path string) *trace.Partial {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	p, err := trace.ReadPartial(fh)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

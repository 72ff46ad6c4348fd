package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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
	// Re-executed as a -worker subprocess by the worker-mode tests: serve
	// cells on stdin/stdout exactly as `figures -worker` would.
	if os.Getenv("FIGURES_TEST_WORKER") != "" {
		seed, err := strconv.ParseInt(os.Getenv("FIGURES_TEST_SEED"), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o := experiments.Options{Quick: true, Seed: seed}
		if err := runWorker(o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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
	pool := runner.NewPool(&runner.PipeTransport{N: 2, Command: testWorkerCmd(t, o.Seed, "")}, runner.Config{})
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
	healthy := testWorkerCmd(t, o.Seed, "")
	faulty := testWorkerCmd(t, o.Seed, "exit:2")
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

// TestPlannedShardMergeRoundTrip runs a modulo-sharded pass to collect
// timings, derives a 2-way LPT plan from its partials, re-runs both shards
// under the plan, and checks the merged table is still bit-identical — the
// -plan / -shard -withplan recipe end to end.
func TestPlannedShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := experiments.Options{Quick: true, Seed: 7}
	sp, err := experiments.NewSpec("13", o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := runShard(sp, o, i, 2, dir, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	// No plan file yet: -withplan must refuse, not fall back silently.
	if err := runShard(sp, o, 1, 2, dir, true, nil); err == nil {
		t.Fatal("-withplan ran without a plan file")
	}
	if err := runPlan(sp, o, 2, dir); err != nil {
		t.Fatal(err)
	}
	pl, err := readPlan(dir, "13", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.ShardCells(1)) + len(pl.ShardCells(2)); got != sp.Cells() {
		t.Fatalf("plan covers %d of %d cells", got, sp.Cells())
	}
	for i := 1; i <= 2; i++ {
		if err := runShard(sp, o, i, 2, dir, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mergeShards(sp, o, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("planned shard+merge table differs from in-process run")
	}
	// A plan for a different split must be refused.
	if _, err := readPlan(dir, "13", 3); err == nil {
		t.Fatal("3-way plan read from a 2-way file")
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
		if err := runShard(sp, o, i, 2, dir, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mergeShards(sp, o, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard+merge table differs from in-process run")
	}
	// Mismatched options must be refused, not silently reduced.
	if _, err := mergeShards(sp, experiments.Options{Quick: true, Seed: 1}, dir); err == nil {
		t.Fatal("merge accepted partials from a different seed")
	}
	// A missing shard must be reported as incomplete.
	if err := os.Remove(filepath.Join(dir, shardFile("13", 1, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeShards(sp, o, dir); err == nil {
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
	if err := runShard(sp, o, 2, 2, dir, false, nil); err != nil { // shard 2 only
		t.Fatal(err)
	}
	_, err = mergeShards(sp, o, dir)
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
	if err := runShard(sp, o, 1, 2, dir, false, nil); err != nil { // half the grid
		t.Fatal(err)
	}
	if err := runResume(sp, o, dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "13.shard-resume.json")); err != nil {
		t.Fatalf("resume partial not written: %v", err)
	}
	got, err := mergeShards(sp, o, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := localTable(t, "13", o)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed merge differs from in-process run")
	}
	// A second resume over the now-complete partials is a no-op, not an
	// error — and must not disturb the merge.
	if err := runResume(sp, o, dir, nil); err != nil {
		t.Fatalf("resume over complete partials: %v", err)
	}
	if got2, err := mergeShards(sp, o, dir); err != nil || !reflect.DeepEqual(got2, want) {
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
			healthy := testWorkerCmd(t, o.Seed, "")
			faulty := testWorkerCmd(t, o.Seed, fault.String())
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
	pool := runner.NewPool(&runner.PipeTransport{N: 2, Command: testWorkerCmd(t, o.Seed, "")}, runner.Config{})
	defer pool.Close()
	if err := runShard(sp, o, 1, 2, poolDir, false, pool); err != nil {
		t.Fatal(err)
	}
	if err := runShard(sp, o, 1, 2, localDir, false, nil); err != nil {
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

// testWorkerCmd re-invokes this test binary as a quick-mode pool worker
// (via the TestMain hook); fault, if non-empty, is passed in FIGURES_FAULT
// exactly as workerCommand passes -faultinject.
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

func testWorkerCmd(t *testing.T, seed int64, fault string) func() (*exec.Cmd, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func() (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"FIGURES_TEST_WORKER=1",
			"FIGURES_TEST_SEED="+strconv.FormatInt(seed, 10))
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

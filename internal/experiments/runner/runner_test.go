package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// testSpec is a deterministic spec whose cell values encode their own
// coordinates, so any scheduling or transport bug shows up as a wrong value.
// It must be reconstructible from scratch (the procs round-trip rebuilds it
// in a child process).
func testSpec(xs, variants, runs int) *Spec {
	s := &Spec{
		Name: "runner-test",
		Xs:   xs, Variants: variants, Runs: runs, Width: 2,
		Cell: func(xi, vi, run int) ([]float64, error) {
			return []float64{float64(xi*10000 + vi*100 + run), float64(run)}, nil
		},
	}
	s.Reduce = func(g *Grid) (*trace.Table, error) {
		tab := &trace.Table{Title: "runner test", XLabel: "x", YLabel: "y"}
		for xi := 0; xi < xs; xi++ {
			tab.X = append(tab.X, float64(xi))
		}
		for vi := 0; vi < variants; vi++ {
			vals := make([]float64, xs)
			for xi := 0; xi < xs; xi++ {
				vals[xi] = stats.Mean(g.Runs(xi, vi))
			}
			tab.Series = append(tab.Series, trace.Series{Label: fmt.Sprintf("v%d", vi), Values: vals})
		}
		return tab, tab.Validate()
	}
	return s
}

// buildTestSpec resolves the spec names the test worker can serve:
//
//	runner-test          the shared test spec, dims from RUNNER_TEST_WORKER
//	grid-XxVxR           a coordinate-encoding grid of the given dimensions
//	failcell-XxVxR       like grid-, but every cell with xi == 1 errors
//	work-XxVxR-K         like grid-, plus K iterations of float work per cell
//	nap-XxVxR-MS         like grid-, but every cell sleeps MS milliseconds
//
// Every test spec has empty Options, whatever the coordinator sent.
func buildTestSpec(name, _ string) (*Spec, error) {
	if name == "runner-test" {
		var xs, variants, runs int
		if _, err := fmt.Sscanf(os.Getenv("RUNNER_TEST_WORKER"), "%d,%d,%d", &xs, &variants, &runs); err != nil {
			return nil, fmt.Errorf("runner-test dims: %w", err)
		}
		return testSpec(xs, variants, runs), nil
	}
	var xs, variants, runs, work int
	if _, err := fmt.Sscanf(name, "grid-%dx%dx%d", &xs, &variants, &runs); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		return s, nil
	}
	if _, err := fmt.Sscanf(name, "failcell-%dx%dx%d", &xs, &variants, &runs); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		inner := s.Cell
		s.Cell = func(xi, vi, run int) ([]float64, error) {
			if xi == 1 {
				return nil, fmt.Errorf("kaput x=%d v=%d run=%d", xi, vi, run)
			}
			return inner(xi, vi, run)
		}
		return s, nil
	}
	if _, err := fmt.Sscanf(name, "work-%dx%dx%d-%d", &xs, &variants, &runs, &work); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		inner := s.Cell
		s.Cell = func(xi, vi, run int) ([]float64, error) {
			x := 1.0
			for k := 0; k < work; k++ {
				x = x*1.0000001 + float64(k%7)
			}
			_ = x
			return inner(xi, vi, run)
		}
		return s, nil
	}
	var ms int
	if _, err := fmt.Sscanf(name, "nap-%dx%dx%d-%d", &xs, &variants, &runs, &ms); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		inner := s.Cell
		s.Cell = func(xi, vi, run int) ([]float64, error) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return inner(xi, vi, run)
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown test spec %q", name)
}

func TestMain(m *testing.M) {
	// Re-executed as a pool worker: speak the worker protocol on
	// stdin/stdout (SPEC lines select the grid), then exit.
	// RUNNER_TEST_FAULT optionally injects one fault (ParseFault syntax).
	if os.Getenv("RUNNER_TEST_WORKER") != "" {
		fault, err := ParseFault(os.Getenv("RUNNER_TEST_FAULT"))
		if err == nil {
			err = ServePool(buildTestSpec, os.Stdin, os.Stdout, ServeOptions{Fault: fault})
		}
		if err != nil && !errors.Is(err, ErrBye) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	s := testSpec(3, 4, 5)
	seen := make(map[int]bool)
	for xi := 0; xi < s.Xs; xi++ {
		for vi := 0; vi < s.Variants; vi++ {
			for run := 0; run < s.Runs; run++ {
				idx := s.Index(xi, vi, run)
				if idx < 0 || idx >= s.Cells() || seen[idx] {
					t.Fatalf("index (%d,%d,%d) -> %d invalid or duplicate", xi, vi, run, idx)
				}
				seen[idx] = true
				gx, gv, gr := s.Coords(idx)
				if gx != xi || gv != vi || gr != run {
					t.Fatalf("coords(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, gx, gv, gr, xi, vi, run)
				}
			}
		}
	}
	if len(seen) != s.Cells() {
		t.Fatalf("%d distinct indices, want %d", len(seen), s.Cells())
	}
}

func TestLocalMatchesInline(t *testing.T) {
	s := testSpec(4, 3, 6)
	want, err := Run(s, Local{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 64} {
		got, err := Run(s, Local{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d table differs from inline run", workers)
		}
	}
}

// TestLocalBoundsGoroutines is the regression test for the unbounded
// goroutine spawn of the old parallelRuns helper, which started one
// goroutine per run before acquiring the semaphore. The Local backend must
// start at most Workers worker goroutines no matter how many cells queue.
func TestLocalBoundsGoroutines(t *testing.T) {
	const workers = 4
	const cells = 512
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	s := &Spec{
		Name: "goroutine-bound",
		Xs:   cells, Variants: 1, Runs: 1, Width: 1,
		Cell: func(xi, vi, run int) ([]float64, error) {
			// Linger briefly so queued cells would pile up goroutines if
			// each had one.
			time.Sleep(100 * time.Microsecond)
			n := int64(runtime.NumGoroutine())
			for {
				cur := peak.Load()
				if n <= cur || peak.CompareAndSwap(cur, n) {
					break
				}
			}
			return []float64{1}, nil
		},
		Reduce: func(g *Grid) (*trace.Table, error) {
			return &trace.Table{X: []float64{0}, Series: []trace.Series{{Label: "n", Values: []float64{1}}}}, nil
		},
	}
	if _, err := Run(s, Local{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	// Allow slack for the test harness's own goroutines, but nothing close
	// to one-per-cell: the old implementation peaked at base + cells.
	if got := int(peak.Load()); got > base+workers+8 {
		t.Fatalf("peak %d goroutines for %d cells with %d workers (base %d): pool is not bounded",
			got, cells, workers, base)
	}
}

func TestLocalPropagatesCellError(t *testing.T) {
	s := testSpec(4, 1, 4)
	s.Cell = func(xi, vi, run int) ([]float64, error) {
		if xi >= 2 {
			return nil, fmt.Errorf("boom x=%d run=%d", xi, run)
		}
		return []float64{1, 1}, nil
	}
	_, err := Run(s, Local{Workers: 8})
	if err == nil {
		t.Fatal("error not propagated")
	}
	if !contains(err.Error(), "boom x=") {
		t.Fatalf("error %q does not surface the failing cell", err)
	}
	// Single-worker execution is sequential, so the report is exact and
	// cells after the failure are skipped.
	if _, err := Run(s, Local{Workers: 1}); err == nil || !contains(err.Error(), "boom x=2 run=0") {
		t.Fatalf("sequential error %q does not name the first failing cell", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestShardPartialMergeMatchesLocal(t *testing.T) {
	s := testSpec(5, 2, 3)
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{2, 3, 7} {
		var parts []*trace.Partial
		covered := 0
		for i := 1; i <= total; i++ {
			cells, err := ShardCells(s.Cells(), i, total)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Local{Cells: cells}.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Complete(); err == nil && total > 1 {
				t.Fatalf("shard %d/%d produced a complete grid", i, total)
			}
			p := g.Partial(i, total)
			covered += len(p.Results)
			parts = append(parts, p)
		}
		if covered != s.Cells() {
			t.Fatalf("shards 1..%d covered %d cells, want %d", total, covered, s.Cells())
		}
		merged, err := trace.MergePartials(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Complete() {
			t.Fatalf("merged partial incomplete: %d of %d", len(merged.Results), merged.Cells)
		}
		g, err := FromPartial(s, merged)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reduce(s, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-way shard+merge table differs from local run", total)
		}
	}
}

func TestShardRejectsBadSplit(t *testing.T) {
	for _, sh := range [][2]int{{0, 2}, {3, 2}, {1, 0}} {
		if _, err := ShardCells(8, sh[0], sh[1]); err == nil {
			t.Fatalf("shard %d/%d accepted", sh[0], sh[1])
		}
	}
	// A shard beyond a small grid is empty, not nil: nil would select the
	// whole grid.
	cells, err := ShardCells(2, 3, 3)
	if err != nil || cells == nil || len(cells) != 0 {
		t.Fatalf("ShardCells(2, 3, 3) = %#v, %v; want an empty non-nil list", cells, err)
	}
}

// serveSpec runs ServePool over input with a registry holding only s.
func serveSpec(s *Spec, input string, w io.Writer) error {
	return ServePool(func(name, _ string) (*Spec, error) {
		if name != s.Name {
			return nil, fmt.Errorf("unknown spec %q", name)
		}
		return s, nil
	}, strings.NewReader(input), w, ServeOptions{})
}

func TestServeWorkerProtocol(t *testing.T) {
	s := testSpec(2, 2, 2)
	// Drive two cells by hand and check the responses line up.
	var buf safeBuffer
	if err := serveSpec(s, "SPEC runner-test\n3\n0\n", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One JSON line per cell, answering the asked index with the
	// coordinate-encoding values; the ns timing field may or may not appear.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	want := []struct {
		idx    int
		values []float64
	}{{3, []float64{101, 1}}, {0, []float64{0, 0}}}
	if len(lines) != len(want) {
		t.Fatalf("worker wrote %d lines, want %d: %q", len(lines), len(want), out)
	}
	for i, line := range lines {
		var msg struct {
			Idx    int       `json:"i"`
			Values []float64 `json:"v"`
			Nanos  int64     `json:"ns"`
			Err    string    `json:"err"`
		}
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if msg.Err != "" || msg.Idx != want[i].idx || !reflect.DeepEqual(msg.Values, want[i].values) {
			t.Fatalf("line %d = %+v, want idx %d values %v", i, msg, want[i].idx, want[i].values)
		}
		if msg.Nanos < 0 {
			t.Fatalf("line %d negative timing %d", i, msg.Nanos)
		}
	}
}

func TestServeWorkerReportsCellErrors(t *testing.T) {
	s := testSpec(1, 1, 1)
	s.Cell = func(xi, vi, run int) ([]float64, error) { return nil, fmt.Errorf("kaput") }
	var buf safeBuffer
	if err := serveSpec(s, "SPEC runner-test\n0\n", &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"i\":0,\"err\":\"kaput\"}\n" {
		t.Fatalf("worker wrote %q", got)
	}
}

// TestServeWorkerRefusesForeignOptions pins that a worker serves no cell of
// a spec it built under other options than the coordinator's SPEC line
// names, that the error names both option sets, and that the worker's only
// line is the Fatal reply carrying that error.
func TestServeWorkerRefusesForeignOptions(t *testing.T) {
	s := testSpec(1, 1, 2)
	s.Options = "seed=7 quick=true metric=dense"
	var buf safeBuffer
	err := serveSpec(s, "SPEC runner-test seed=1 quick=false metric=dense\n0\n", &buf)
	if err == nil || !strings.Contains(err.Error(), "seed=7 quick=true") || !strings.Contains(err.Error(), "seed=1 quick=false") {
		t.Fatalf("got %v, want an error naming both option sets", err)
	}
	var msg cellMsg
	if got := buf.String(); json.Unmarshal([]byte(got), &msg) != nil || msg.Fatal != err.Error() || msg.Values != nil {
		t.Fatalf("worker answered %q under foreign options, want only the Fatal reply", got)
	}
	if err := serveSpec(s, "SPEC runner-test "+s.Options+"\n1\n", &buf); err != nil {
		t.Fatalf("matching options refused: %v", err)
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// TestProcsRoundTrip spawns this test binary as real worker subprocesses
// (via the TestMain hook) and checks the multi-process table is identical to
// the in-process one.
func TestProcsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := testSpec(4, 3, 2)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(&PipeTransport{
		N: 2,
		Command: func() (*exec.Cmd, error) {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"RUNNER_TEST_WORKER="+fmt.Sprintf("%d,%d,%d", s.Xs, s.Variants, s.Runs))
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
	}, Config{})
	defer pool.Close()
	got, err := Run(s, pool)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("procs table differs from local run")
	}
}

func TestProcsSurfacesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := testSpec(2, 1, 2)
	pool := NewPool(&PipeTransport{
		N: 1,
		Command: func() (*exec.Cmd, error) {
			// A worker that exits immediately without speaking the protocol.
			return exec.Command("/bin/sh", "-c", "exit 0"), nil
		},
	}, Config{})
	defer pool.Close()
	if _, err := Run(s, pool); err == nil {
		t.Fatal("dead worker not reported")
	}
}

func TestRunValidatesSpec(t *testing.T) {
	bad := []*Spec{
		nil,
		{Name: "", Xs: 1, Variants: 1, Runs: 1},
		{Name: "x", Xs: 0, Variants: 1, Runs: 1},
		{Name: "x", Xs: 1, Variants: 1, Runs: 1}, // no cell/reduce
	}
	for i, s := range bad {
		if _, err := Run(s, Local{}); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestFromPartialRejectsForeign(t *testing.T) {
	s := testSpec(2, 1, 1)
	if _, err := FromPartial(s, &trace.Partial{Figure: "other", Cells: 2}); err == nil {
		t.Fatal("foreign figure accepted")
	}
	if _, err := FromPartial(s, &trace.Partial{Figure: s.Name, Cells: 99}); err == nil {
		t.Fatal("wrong grid size accepted")
	}
	if _, err := FromPartial(s, &trace.Partial{
		Figure: s.Name, Cells: s.Cells(),
		Results: []trace.CellResult{{Idx: 5, Values: []float64{1}}},
	}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	// A cell narrower than the spec's Width (an edited or foreign partial)
	// is refused by spec and cell before Reduce can index past its end.
	_, err := FromPartial(s, &trace.Partial{
		Figure: s.Name, Cells: s.Cells(),
		Results: []trace.CellResult{{Idx: 1, Values: []float64{1}}},
	})
	if err == nil || !strings.Contains(err.Error(), "spec runner-test cell 1") {
		t.Fatalf("short cell: got %v, want an error naming spec runner-test cell 1", err)
	}
	if err := strconvSanity(); err != nil {
		t.Fatal(err)
	}
}

// strconvSanity pins the float64 JSON round-trip assumption the shard format
// relies on: shortest-form encoding parses back bit-identically.
func strconvSanity() error {
	for _, v := range []float64{1.0 / 3.0, 0.1, 12345.678901234567, 2.2250738585072014e-308} {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if back != v {
			return fmt.Errorf("%v round-tripped to %v", v, back)
		}
	}
	return nil
}

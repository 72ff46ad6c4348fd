package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// binDir holds flexserve and figures built from this checkout.
var binDir string

// TestMain builds the CLIs once, and doubles as the job process the
// batch workloads spawn (os.Executable is the test binary here).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "bench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, cmd := range []string{"flexserve", "figures"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", cmd, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeSize runs every workload in well under a second per job.
var smokeSize = size{
	Figures: []string{"12", "13"},
	HugeN:   2000, HugeRounds: 2,
	ConfN: 30, WFARounds: 2, ONCONFRounds: 2,
	OPTN: 6, OPTRounds: 20,
	ServeN: 200, SingleRate: 4000, BatchRate: 500, BatchArray: 32,
	ServeStarts: 2, ServePhases: 2,
}

func testConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 0.6, trace: trace, bin: binDir, tmp: t.TempDir(), size: smokeSize}
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads and
// metrics the code runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, json []metricDef, code []metricDef) {
		if len(json) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(json), len(code))
		}
		for i := range json {
			if json[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", kind, i, json[i], code[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestSmoke runs every workload untraced and traced at smokeSize and
// checks each emits every metric BENCHMARK.json names, in its unit, with
// its outputs verified.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, traced), func(t *testing.T) {
				r, err := runWorkload(testConfig(t, traced), wl)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d checks=%v", r.Correct, r.Attempted, r.Failed, r.Checks)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := r.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("%s in %s, want %s", name, m.Unit, unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
					}
				}
				if traced && len(r.spans) == 0 {
					t.Errorf("traced run recorded no spans")
				}
			})
		}
	}
}

// TestParity pins the in-process jobs to the CLIs: the ledgers of a small
// smallworld/sparse ONTH run and a line n=6 OPT run must equal flexserve
// -csv, and the rendered -only 12,13 figures must equal figures -quick.
func TestParity(t *testing.T) {
	cfg := testConfig(t, false)
	cases := []struct {
		wl   string
		jobs func(*child) error
	}{
		{"figures-quick", (*child).figures},
		{"huge-sparse", func(c *child) error { return c.models(batchModels("huge-sparse", smokeSize)) }},
		{"config-space", func(c *child) error { return c.models(batchModels("config-space", smokeSize)[2:]) }},
	}
	for _, tc := range cases {
		c := &child{job: job{Workload: tc.wl, Seed: cfg.seed, Size: smokeSize}, tr: newTracer(),
			rep: repReport{Digests: map[string]string{}, Layers: map[string]float64{}}}
		if err := tc.jobs(c); err != nil {
			t.Fatalf("%s: %v", tc.wl, err)
		}
		want, err := cliDigests(cfg, tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range c.rep.Digests {
			if want[name] != got {
				t.Errorf("%s: in-process %s differs from the CLI's", tc.wl, name)
			}
		}
		if len(c.rep.Digests) == 0 {
			t.Errorf("%s: no outputs digested", tc.wl)
		}
	}
}

// TestCorruptGoldenFails checks a golden that disagrees with the CLI
// output makes the run incorrect, which makes the benchmark exit non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	goldenJSON = []byte(`{"figures-quick": {"3": {"stdout": "0000"}}}`)
	cfg := testConfig(t, false)
	cfg.size = fullSize
	cfg.size.Figures = []string{"12"}
	r, err := runWorkload(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Fatalf("a corrupted golden passed: %v", r.Checks)
	}
	var out bytes.Buffer
	if err := printFinal(&out, []result{*r}); err == nil {
		t.Errorf("printFinal accepted an incorrect run")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("final line %q does not report the failure", out.String())
	}
}

// TestGoldensCoverGoldenSeeds checks the committed goldens hold every
// batch workload at every golden seed.
func TestGoldensCoverGoldenSeeds(t *testing.T) {
	g, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if wl.serve {
			continue
		}
		for _, s := range goldenSeeds {
			if len(g[wl.name][fmt.Sprint(s)]) == 0 {
				t.Errorf("no golden for %s seed %d", wl.name, s)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i], slower[i] = p*0.8, p*1.2
	}
	cases := []struct {
		change []float64
		want   string
	}{
		{faster, "gain"},
		{slower, "regressed"},
		{parent, "no regression"},
	}
	for _, tc := range cases {
		if v := judge(parent, tc.change, true, 0.1); v.verdict != tc.want {
			t.Errorf("judge = %q (%d/%d wins), want %q", v.verdict, v.wins, v.pairs, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(noisy, noisy, true, 0.1); v.verdict != "unresolved" {
		t.Errorf("judge on a spread wider than the bound = %q, want unresolved", v.verdict)
	}
}

// TestAddProfile decodes a real CPU profile of this process.
func TestAddProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	flat := map[string]int64{}
	if err := addProfile(path, flat); err != nil {
		t.Fatal(err)
	}
	if flat["other"] <= 0 {
		t.Errorf("no CPU attributed to this package: %v (x=%v)", flat, x)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/graph.(*Sparse).Row":         "graph",
		"repro/internal/graph/gen.SmallWorld":        "graph",
		"repro/internal/experiments/runner.runCells": "experiments",
		"runtime.mallocgc":                           "runtime",
		"main.(*countingMetric).Row":                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

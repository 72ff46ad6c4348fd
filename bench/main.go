// Command bench is the repository's end-to-end benchmark. It runs one of
// five fixed workloads — the researcher's figure reproduction, the
// operator's placement service under two traffic shapes, a 10⁵-node sparse
// substrate, and the configuration-space kernels — for a fixed time,
// checks every output against the CLIs and the committed goldens, and
// prints one JSON result as its last line. With --trace 1 it repeats the
// run with spans around its calls into each layer and a CPU profile
// bucketed by package, and reports per-layer numbers instead.
//
// Run it through bench/run.sh, which builds it and the CLIs it drives:
//
//	bash bench/run.sh --workload serve-single --seed 3 --seconds 22 --trace 0
//	bash bench/run.sh --seed 1 --out set1.json        # every workload
//	bash bench/run.sh --compare parent/ change/       # A/B verdicts
//	bash bench/run.sh --write-golden                  # regenerate goldens
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one fixed input set; why says which layers it stresses.
type workloadDef struct {
	name  string
	why   string
	serve bool // drives the flexserve server instead of in-process jobs
}

var workloads = []workloadDef{
	{"figures-quick", "the researcher's path: the 20 quick figures on the in-process runner; dense rows and cost kernels, no HTTP or WAL", false},
	{"serve-single", "the operator's path: one request per POST, open and closed loops alternating; HTTP, admission and one WAL append per request", true},
	{"serve-batch", "the same server with 32-request POSTs; HTTP amortised, so the engine, WAL appends and checkpoints bound it", true},
	{"huge-sparse", "ONTH on a 10^5-node small world with an LRU of 64 sparse rows; Dijkstra and row-cache locking, never the dense path", false},
	{"config-space", "WFA and ONCONF over 234k configurations (112-node PA graph, k=3), OPT on a line; the configuration-space kernels every other workload bypasses", false},
}

// size holds a workload's run sizes. fullSize is what the benchmark runs;
// tests pass smaller sizes.
type size struct {
	Full         bool     // goldens apply
	Figures      []string // figures-quick selection
	HugeN        int
	HugeRounds   int
	ConfN        int // preferential-attachment nodes of the WFA and ONCONF runs
	WFARounds    int
	ONCONFRounds int
	OPTN, OPTK   int
	OPTRounds    int
	ServeN       int
	SingleRate   float64 // serve-single open-loop requests per second
	BatchRate    float64 // serve-batch open-loop posts per second
	BatchArray   int     // requests per serve-batch post
	ServeStarts  int     // server starts timed for setup_s
	// ServePhases is how many open-loop/closed-loop pairs a serve run
	// alternates. A shared host slows down for seconds at a time;
	// alternating spreads such a spell over both loops and the
	// calibrations between them, instead of letting it fall on one loop.
	ServePhases int
}

var fullSize = size{
	Full: true,
	Figures: []string{
		"1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
		"11", "12", "13", "14", "15", "16", "17", "18", "19", "rocketfuel",
	},
	HugeN: 100000, HugeRounds: 3,
	ConfN: 112, WFARounds: 16, ONCONFRounds: 16,
	OPTN: 16, OPTK: 4, OPTRounds: 60,
	ServeN: 200, SingleRate: 4000, BatchRate: 500, BatchArray: 32,
	ServeStarts: 10, ServePhases: 10,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, the same list as
// BENCHMARK.json's end_to_end. A job is one fresh-process repetition of a
// batch workload's fixed work; a result is one figure or one round's
// placement decision of a job, or one acknowledged POST of a serve
// workload's open loop. Every value is a median over jobs or phases, or for
// serve latencies the least disturbed phase, so a contention burst on a
// shared host moves it little.
var endToEnd = []metricDef{
	{"latency_ms", "ms"},        // batch: job wall; serve: the lowest over the open loops of the loop's median ack, timed from each POST's due time
	{"tail_latency_ms", "ms"},   // batch: median over jobs of the job's slowest result; serve: the lowest over the open loops of the loop's p90 ack
	{"throughput_per_s", "1/s"}, // batch: results per second of job wall; serve: closed-loop requests admitted per second
	{"cpu_s", "s"},              // batch: CPU per job; serve: server CPU per 10k requests the open loop admitted
	{"peak_rss_mb", "MB"},       // batch: job peak RSS; serve: the server's
	{"setup_s", "s"},            // batch: exec until the inputs are built; serve: exec until /readyz answers 200
}

// perLayer are the metrics a traced run reports, BENCHMARK.json's
// per_layer. A layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"graph.row_calls", "count"}, {"graph.row_slow_calls", "count"}, {"graph.row_s", "s"}, {"graph.cpu_share", "ratio"},
	{"cost.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"}, {"core.configs", "count"},
	{"online.observe_calls", "count"}, {"online.observe_s", "s"}, {"online.observe_p50_us", "us"},
	{"online.observe_max_ms", "ms"}, {"online.wfa_clusters", "count"}, {"online.wfa_improved", "count"},
	{"online.cpu_share", "ratio"},
	{"offline.reset_s", "s"}, {"offline.cpu_share", "ratio"},
	{"sim.serve_calls", "count"}, {"sim.serve_self_s", "s"}, {"sim.reconfig_rounds", "count"}, {"sim.cpu_share", "ratio"},
	{"workload.build_s", "s"}, {"workload.cpu_share", "ratio"},
	{"experiments.spec_s", "s"}, {"experiments.cpu_share", "ratio"},
	{"runner.cells", "count"}, {"runner.cell_s_sum", "s"}, {"runner.overhead_s", "s"},
	{"trace.render_s", "s"}, {"trace.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"serve.metrics_get_p50_ms", "ms"}, {"serve.metrics_get_max_ms", "ms"}, {"serve.placement_get_p50_ms", "ms"},
	{"serve.ack_p99_ms", "ms"},
	{"serve.queue_depth_max", "count"}, {"serve.server_cpu_us_per_req", "us"}, {"serve.sat_shed_frac", "ratio"},
	{"serve.sojourn_p50_ms", "ms"}, {"serve.sojourn_p99_ms", "ms"}, {"serve.rounds", "count"},
	{"serve.replay_s", "s"}, {"serve.replay_us_per_entry", "us"},
	{"serve.wal_append_p50_us", "us"}, {"serve.wal_append_p99_us", "us"}, {"serve.wal_sync_ms", "ms"},
	{"serve.checkpoint_ms", "ms"}, {"serve.admit_us", "us"}, {"serve.checkpoints_ok", "count"},
	{"gen.late_max_ms", "ms"}, {"gen.late_p99_ms", "ms"}, {"gen.cpu_s", "s"},
	{"trace.overhead_ms", "ms"},
}

// maxLateMs is how late the open-loop generator may start one POST in a
// hundred before the run's latencies stop describing the server. A single
// late POST says little: on a shared 2-vCPU host the generator is
// descheduled for about 10 ms a few times in most runs.
const maxLateMs = 5.0

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	bin     string // directory holding the flexserve and figures binaries
	tmp     string // temporary directory for state, CSVs and profiles
	size    size
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. The final stdout line carries only the
// summary fields; --out files keep everything.
type result struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Correct    bool                 `json:"correct"`
	Valid      bool                 `json:"valid"` // false when the generator ran too late to trust latencies
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metric    `json:"metrics"`
	Checks     []string             `json:"checks"`               // correctness evidence, one line each
	Samples    map[string]int       `json:"samples"`              // sample count per phase
	JobWalls   []float64            `json:"job_wall_s,omitempty"` // every untraced job, in order: the noise evidence
	Windows    map[string][]float64 `json:"windows,omitempty"`    // per-job or per-phase samples, in order
	Calib      []float64            `json:"calib_s"`              // wall time of every calibrate() of the run
	CalibCPU   []float64            `json:"calib_cpu_s"`          // CPU time of the same calibrate() runs
	HostScale  float64              `json:"host_scale"`           // median(Calib)/calibRef: above 1, the host ran slow
	CPUScale   float64              `json:"cpu_scale"`            // median(CalibCPU)/calibCPURef
	Provenance provenance           `json:"provenance"`
	spans      []span
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, "FAIL "+fmt.Sprintf(format, args...))
}

func (r *result) ok(format string, args ...any) {
	r.Checks = append(r.Checks, "ok "+fmt.Sprintf(format, args...))
}

// calibrate times calibrate() once, between a workload's jobs or phases.
func (r *result) calibrate() {
	wall, cpu := calibrate()
	r.Calib = append(r.Calib, wall)
	r.CalibCPU = append(r.CalibCPU, cpu)
}

// cpuMetrics are the metrics that measure CPU time rather than wall time.
var cpuMetrics = []string{"cpu_s"}

// normalize reports the CPU-bound metrics of a run at the reference host
// speed: a time is divided by the host's scale and a rate multiplied by
// it, the CPU-time scale for cpuMetrics and the wall-time scale for the
// rest. On a shared host whose speed drifts by a fifth from minute to
// minute, this is what lets runs minutes apart agree. keep says which
// metrics stay as measured: serve latencies are set by wake-ups, loopback
// and the disk, which calibrate() does not see, and normalizing them
// widened their spread.
func (r *result) normalize(keep ...string) {
	r.HostScale = median(r.Calib) / calibRef
	r.CPUScale = median(r.CalibCPU) / calibCPURef
	for name, m := range r.Metrics {
		if slices.Contains(keep, name) {
			continue
		}
		scale := r.HostScale
		if slices.Contains(cpuMetrics, name) {
			scale = r.CPUScale
		}
		switch m.Unit {
		case "s", "ms", "us":
			m.Value /= scale
		case "1/s":
			m.Value *= scale
		}
		r.Metrics[name] = m
	}
}

// setMetrics fills r.Metrics with every metric of defs, in its unit;
// values holds what the run measured, and a missing one reads 0.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) {
	r.Metrics = map[string]metric{}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

// provenance is the evidence a later "it was noise" claim needs.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	LoadAvg    string `json:"loadavg_before"`
	Start      string `json:"start"`
	// StealS is the CPU time the hypervisor gave other guests while this
	// VM's CPUs wanted to run, over the whole run, summed over CPUs.
	StealS float64 `json:"steal_s"`
}

// stealSeconds returns the host's cumulative steal time from /proc/stat,
// 0 where there is none to read.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

const userHZ = 100 // the kernel's fixed USER_HZ for /proc times

func newProvenance() provenance {
	load, _ := os.ReadFile("/proc/loadavg") // absent off Linux; then empty
	// Only a checkout that is itself a git repository has a revision; git
	// is not asked to search the directories above it.
	rev := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_DIR=.git")
		if out, err := cmd.Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: rev,
		LoadAvg: strings.TrimSpace(string(load)),
		Start:   time.Now().UTC().Format(time.RFC3339),
	}
}

const childEnv = "BENCH_CHILD"

// dieWithParent makes a child process the benchmark starts receive SIGKILL
// if the benchmark dies first, so an interrupted run leaves no server or
// job behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func main() {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 22, "measured time per workload")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the full results (checks, samples, provenance) to this JSON file")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the flexserve and figures binaries")
	tmp := fs.String("tmp", ".bench_build/tmp", "temporary directory for state, CSVs and profiles")
	compare := fs.Bool("compare", false, "compare two directories of --out files: --compare PARENT CHANGE")
	writeGolden := fs.Bool("write-golden", false, "regenerate bench/golden/digests.json from the CLIs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare needs two directories, parent then change")
		}
		return compareRuns("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	tmpDir, err := filepath.Abs(*tmp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, bin: binDir, tmp: tmpDir, size: fullSize}
	if *writeGolden {
		return writeGoldens(cfg, filepath.Join("bench", "golden", "digests.json"))
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		for _, wl := range workloads {
			if wl.name == *name {
				selected = []workloadDef{wl}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}
	var results []result
	for _, wl := range selected {
		r, err := runWorkload(cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printSummary(stdout, r)
		results = append(results, *r)
	}
	if cfg.trace {
		if err := writeTrace("bench-trace.json", results); err != nil {
			return err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printFinal(stdout, results)
}

// runWorkload runs one workload and checks its outputs.
func runWorkload(cfg config, wl workloadDef) (*result, error) {
	r := &result{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Valid: true,
		Samples: map[string]int{}, Provenance: newProvenance()}
	steal := stealSeconds()
	var err error
	if wl.serve {
		err = runServe(cfg, wl, r)
	} else {
		err = runBatch(cfg, wl, r)
	}
	r.Provenance.StealS = stealSeconds() - steal
	return r, err
}

func printSummary(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d %s correct=%v valid=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, mode, r.Correct, r.Valid, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "#   %s\n", c)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// printFinal writes the result line: one JSON object with exactly
// correct, attempted, failed and metrics. Over several workloads the
// metrics are keyed workload/metric.
func printFinal(w io.Writer, results []result) error {
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(results) > 1 {
				n = r.Workload + "/" + n
			}
			final.Metrics[n] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !final.Correct {
		return fmt.Errorf("outputs failed their checks")
	}
	return nil
}

// writeTrace writes every traced run's spans.
func writeTrace(path string, results []result) error {
	type runSpans struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}
	var all []runSpans
	for _, r := range results {
		all = append(all, runSpans{r.Workload, r.Seed, r.spans})
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenSeeds are the seeds whose output digests are committed; seed 3 is
// held out from development, for claims.
var goldenSeeds = []int64{1, 3, 7}

// goldenJSON maps workload → seed → output name → sha256, produced by
// --write-golden from the CLIs at fullSize.
//
//go:embed golden/digests.json
var goldenJSON []byte

func goldens() (map[string]map[string]map[string]string, error) {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/digests.json: %w", err)
	}
	return g, nil
}

// writeGoldens runs the CLIs for every golden seed and batch workload at
// fullSize and records their output digests.
func writeGoldens(cfg config, path string) error {
	g := map[string]map[string]map[string]string{}
	for _, wl := range workloads {
		if wl.serve {
			continue
		}
		g[wl.name] = map[string]map[string]string{}
		for _, s := range goldenSeeds {
			c := cfg
			c.seed = s
			d, err := cliDigests(c, wl.name)
			if err != nil {
				return err
			}
			g[wl.name][strconv.FormatInt(s, 10)] = d
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cliRun is one reference invocation of a CLI; its output is digested
// under name — stdout, or the ledger CSV written to -csv.
type cliRun struct {
	name string
	bin  string
	args []string
	csv  bool
}

// cliDigests runs a batch workload's reference CLIs for cfg.seed.
func cliDigests(cfg config, wl string) (map[string]string, error) {
	out := map[string]string{}
	for _, c := range cliRuns(wl, cfg.seed, cfg.size) {
		args := c.args
		csvPath := filepath.Join(cfg.tmp, "ref-"+c.name)
		if c.csv {
			args = append(append([]string(nil), args...), "-csv", csvPath)
		}
		cmd := exec.Command(filepath.Join(cfg.bin, c.bin), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s %s: %v\n%s", c.bin, strings.Join(args, " "), err, stderr.String())
		}
		data := stdout.Bytes()
		if c.csv {
			var err error
			if data, err = os.ReadFile(csvPath); err != nil {
				return nil, err
			}
			os.Remove(csvPath)
		}
		out[c.name] = digest(data)
	}
	return out, nil
}

// cliRuns lists the CLI invocations whose outputs a batch workload's jobs
// must reproduce byte for byte.
func cliRuns(wl string, seed int64, sz size) []cliRun {
	if wl == "figures-quick" {
		return []cliRun{{name: "stdout", bin: "figures",
			args: []string{"-quick", "-seed", strconv.FormatInt(seed, 10), "-only", strings.Join(sz.Figures, ",")}}}
	}
	var runs []cliRun
	for _, m := range batchModels(wl, sz) {
		runs = append(runs, cliRun{name: m.alg + ".csv", bin: "flexserve", args: m.args(seed), csv: true})
	}
	return runs
}

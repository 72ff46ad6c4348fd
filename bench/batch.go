package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// model is one flexserve batch configuration. The benchmark builds it
// in-process through the same public calls and seed streams flexserve uses
// (topology from seed, workload from seed+1, algorithm from seed+2), and
// renders it as flexserve flags for the reference run it must match.
type model struct {
	topo       string // er, line, pa, smallworld
	n          int
	metric     string // graph.NewMetric spec; "" is dense
	approx     bool   // start at graph.ApproxCenter instead of the exact center
	scenario   string // uniform or an experiments.BuildNamedScenario name
	T          int    // 0 derives T from the network size
	alg        string // onth, wfa, onconf, opt
	k          int
	maxConfigs int
	rounds     int
}

// batchModels lists the flexserve runs one job of a batch workload makes.
func batchModels(wl string, sz size) []model {
	switch wl {
	case "huge-sparse":
		return []model{{topo: "smallworld", n: sz.HugeN, metric: "sparse:64", approx: true,
			scenario: "uniform", T: 6, alg: "onth", rounds: sz.HugeRounds}}
	case "config-space":
		return []model{
			{topo: "pa", n: sz.ConfN, scenario: "time-zones", alg: "wfa", k: 3, maxConfigs: 300000, rounds: sz.WFARounds},
			{topo: "pa", n: sz.ConfN, scenario: "time-zones", alg: "onconf", k: 3, maxConfigs: 300000, rounds: sz.ONCONFRounds},
			{topo: "line", n: sz.OPTN, scenario: "commuter-dynamic", alg: "opt", k: sz.OPTK, rounds: sz.OPTRounds},
		}
	}
	return nil
}

// args renders the model as flexserve flags.
func (m model) args(seed int64) []string {
	a := []string{"-topo", m.topo, "-scenario", m.scenario, "-alg", m.alg,
		"-rounds", strconv.Itoa(m.rounds), "-seed", strconv.FormatInt(seed, 10)}
	if m.n > 0 {
		a = append(a, "-n", strconv.Itoa(m.n))
	}
	if m.metric != "" {
		a = append(a, "-metric", m.metric)
	}
	if m.approx {
		a = append(a, "-start", "approx")
	}
	if m.T > 0 {
		a = append(a, "-T", strconv.Itoa(m.T))
	}
	if m.k > 0 {
		a = append(a, "-k", strconv.Itoa(m.k))
	}
	if m.maxConfigs > 0 {
		a = append(a, "-maxconfigs", strconv.Itoa(m.maxConfigs))
	}
	return a
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func (m model) topology(seed int64) (*graph.Graph, error) {
	rng := seeded(seed)
	switch m.topo {
	case "er":
		return gen.ErdosRenyi(m.n, experiments.ErdosRenyiP, gen.DefaultOptions(), rng)
	case "line":
		return gen.Line(m.n, gen.DefaultOptions(), rng)
	case "pa":
		return gen.PreferentialAttachment(m.n, 2, gen.DefaultOptions(), rng)
	case "smallworld":
		return gen.SmallWorld(m.n, max(m.n/4, 1), gen.DefaultOptions(), rng)
	}
	return nil, fmt.Errorf("unknown topology %q", m.topo)
}

// backend builds the model's distance backend over g.
func (m model) backend(g *graph.Graph) (graph.Metric, error) {
	if m.metric == "" {
		return g.Metric(), nil
	}
	return graph.NewMetric(g, m.metric)
}

// env builds flexserve's environment over g with the given backend.
func (m model) env(g *graph.Graph, metric graph.Metric) (*sim.Env, error) {
	var start core.Placement
	if m.approx {
		start = core.NewPlacement(g.ApproxCenter())
	}
	params := cost.Params{Beta: 40, Create: 400, RunActive: 2.5, RunInactive: 0.5}
	return sim.NewEnvMetric(g, metric, cost.Linear{}, cost.AssignMinCost, params,
		core.Params{QueueCap: 3, Expiry: 20, MaxServers: m.k}, start)
}

func (m model) sequence(env *sim.Env, seed int64) (*workload.Sequence, error) {
	T := m.T
	if T == 0 {
		T = workload.TForSize(env.Graph.N())
	}
	rng := seeded(seed + 1)
	if m.scenario == "uniform" {
		return workload.Uniform(env.Graph.N(), 1<<uint(T/2), m.rounds, rng)
	}
	return experiments.BuildNamedScenario(m.scenario, env.Metric, T, 10, m.rounds, 0, rng)
}

func (m model) algorithm(seq *workload.Sequence, seed int64) (sim.Algorithm, error) {
	switch m.alg {
	case "onth":
		return online.NewONTH(), nil
	case "wfa":
		a := online.NewWFA()
		a.MaxConfigs = m.maxConfigs
		return a, nil
	case "onconf":
		a := online.NewONCONF(seeded(seed + 2))
		a.MaxConfigs = m.maxConfigs
		return a, nil
	case "opt":
		return offline.NewOPT(seq), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", m.alg)
}

// job is what the parent sends a child process on stdin: one repetition
// of a batch workload's fixed work.
type job struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Size     size   `json:"size"`
	Trace    bool   `json:"trace"`
	Profile  string `json:"profile,omitempty"` // CPU profile path, traced jobs only
	Exec     int64  `json:"exec_unix_ns"`      // when the parent started the process
}

// repReport is what a child reports back on stdout.
type repReport struct {
	SetupS  float64            `json:"setup_s"` // exec to inputs built, excluding the runs between set-ups
	RSSMB   float64            `json:"peak_rss_mb"`
	Results []float64          `json:"results"` // seconds to each result: a figure or a round
	Digests map[string]string  `json:"digests"` // output name → sha256
	Layers  map[string]float64 `json:"layers"`
	Spans   []span             `json:"spans,omitempty"`
}

// childMain runs one job in this process, which the parent started fresh
// so that its memory and caches start cold.
func childMain(stdin io.Reader, stdout io.Writer) error {
	var j job
	if err := json.NewDecoder(stdin).Decode(&j); err != nil {
		return fmt.Errorf("read job: %w", err)
	}
	var profile *os.File
	if j.Profile != "" {
		var err error
		if profile, err = os.Create(j.Profile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			profile.Close()
			return err
		}
	}
	c := &child{job: j, tr: newTracer(), rep: repReport{Digests: map[string]string{}, Layers: map[string]float64{}}}
	c.rep.SetupS = float64(time.Now().UnixNano()-j.Exec) / 1e9 // exec, runtime and package init
	var err error
	if j.Workload == "figures-quick" {
		err = c.figures()
	} else {
		err = c.models(batchModels(j.Workload, j.Size))
	}
	if profile != nil {
		pprof.StopCPUProfile()
		if cerr := profile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if c.rep.RSSMB, err = peakRSS("self"); err != nil {
		return err
	}
	if j.Trace {
		c.rep.Spans = c.tr.spans
	}
	return json.NewEncoder(stdout).Encode(c.rep)
}

type child struct {
	job job
	tr  *tracer
	rep repReport
}

// figures is one figures-quick job: figures -quick's selection built with
// experiments.NewSpec, run on the in-process runner and rendered as the
// CLI renders it.
func (c *child) figures() error {
	opts := experiments.Options{Quick: true, Seed: c.job.Seed}
	setup := c.tr.begin("setup", 0)
	specs := make([]*runner.Spec, len(c.job.Size.Figures))
	for i, name := range c.job.Size.Figures {
		id := c.tr.begin("experiments.NewSpec "+name, setup)
		sp, err := experiments.NewSpec(name, opts)
		if err != nil {
			return err
		}
		specs[i] = sp
		c.tr.end(id)
	}
	c.rep.Layers["experiments.spec_s"] = c.tr.end(setup)
	c.rep.SetupS += c.rep.Layers["experiments.spec_s"]
	const workers = 2
	var out bytes.Buffer
	for _, sp := range specs {
		fig := c.tr.begin("figure "+sp.Name, 0)
		id := c.tr.begin("runner.Collect", fig)
		g, err := runner.Collect(sp, runner.Local{Workers: workers})
		if err != nil {
			return err
		}
		collect := c.tr.end(id)
		cells := 0.0
		for i := 0; i < sp.Cells(); i++ {
			cells += float64(g.Nanos(i)) / 1e9
		}
		c.rep.Layers["runner.cells"] += float64(sp.Cells())
		c.rep.Layers["runner.cell_s_sum"] += cells
		c.rep.Layers["runner.overhead_s"] += collect*workers - cells
		id = c.tr.begin("runner.Reduce", fig)
		tab, err := runner.Reduce(sp, g)
		if err != nil {
			return err
		}
		c.tr.end(id)
		id = c.tr.begin("trace.Render", fig)
		if err := trace.Render(&out, tab); err != nil {
			return err
		}
		c.rep.Layers["trace.render_s"] += c.tr.end(id)
		c.rep.Results = append(c.rep.Results, c.tr.end(fig))
	}
	c.rep.Digests["stdout"] = digest(out.Bytes())
	return nil
}

// models is one job of a flexserve-shaped workload: each model is set up
// and played, and its ledger CSV digested.
func (c *child) models(ms []model) error {
	for _, m := range ms {
		seed := c.job.Seed
		setup := c.tr.begin("setup "+m.alg, 0)
		id := c.tr.begin("topology "+m.topo, setup)
		g, err := m.topology(seed)
		if err != nil {
			return err
		}
		c.tr.end(id)
		id = c.tr.begin("metric+start", setup)
		metric, err := m.backend(g)
		if err != nil {
			return err
		}
		var counter *countingMetric
		if c.job.Trace {
			counter = &countingMetric{Metric: metric}
			metric = counter
		}
		env, err := m.env(g, metric)
		if err != nil {
			return err
		}
		c.tr.end(id)
		id = c.tr.begin("workload "+m.scenario, setup)
		seq, err := m.sequence(env, seed)
		if err != nil {
			return err
		}
		c.rep.Layers["workload.build_s"] += c.tr.end(id)
		c.rep.SetupS += c.tr.end(setup)

		alg, err := m.algorithm(seq, seed)
		if err != nil {
			return err
		}
		l, err := c.play(env, alg, seq)
		if err != nil {
			return err
		}
		var csv bytes.Buffer
		if err := trace.WriteLedger(&csv, l); err != nil {
			return err
		}
		c.rep.Digests[m.alg+".csv"] = digest(csv.Bytes())
		if counter != nil {
			c.rep.Layers["graph.row_calls"] += float64(counter.calls.Load())
			c.rep.Layers["graph.row_slow_calls"] += float64(counter.slow.Load())
			c.rep.Layers["graph.row_s"] += float64(counter.nanos.Load()) / 1e9
		}
	}
	return nil
}

// play serves seq round by round exactly as sim.Run does, with a span per
// round; in traced jobs the algorithm's own calls are timed as well.
func (c *child) play(env *sim.Env, alg sim.Algorithm, seq *workload.Sequence) (*sim.Ledger, error) {
	inner := alg
	var ta *tracedAlg
	if c.job.Trace {
		ta = &tracedAlg{Algorithm: alg, tr: c.tr}
		alg = ta
	}
	id := c.tr.begin("sim.NewStream "+alg.Name(), 0)
	if ta != nil {
		ta.parent = id
	}
	s, err := sim.NewStream(env, alg, seq.Name())
	if err != nil {
		return nil, err
	}
	c.tr.end(id)
	self := 0.0
	for t := 0; t < seq.Len(); t++ {
		id := c.tr.begin("sim.Stream.Serve", 0)
		if ta != nil {
			ta.parent, ta.inner = id, 0
		}
		if _, err := s.Serve(seq.Demand(t)); err != nil {
			return nil, err
		}
		d := c.tr.end(id)
		c.rep.Results = append(c.rep.Results, d)
		if ta != nil {
			self += d - ta.inner
		}
	}
	l := s.Ledger()
	if ta == nil {
		return l, nil
	}
	lay := c.rep.Layers
	lay["sim.serve_calls"] += float64(seq.Len())
	lay["sim.serve_self_s"] += self
	for _, r := range l.Rounds {
		if r.Migration+r.Creation > 0 {
			lay["sim.reconfig_rounds"]++
		}
	}
	if _, ok := inner.(*offline.OPT); ok {
		lay["offline.reset_s"] += ta.reset
	}
	if len(ta.obs) > 0 {
		lay["online.observe_calls"] += float64(len(ta.obs))
		for _, s := range ta.obs {
			lay["online.observe_s"] += s
		}
		lay["online.observe_p50_us"] = max(lay["online.observe_p50_us"], median(ta.obs)*1e6)
		lay["online.observe_max_ms"] = max(lay["online.observe_max_ms"], maxOf(ta.obs)*1e3)
	}
	if w, ok := inner.(*online.WFA); ok {
		configs, clusters, improved := w.Stats()
		lay["core.configs"] = float64(configs)
		lay["online.wfa_clusters"] = float64(clusters)
		lay["online.wfa_improved"] = float64(improved)
	}
	return l, nil
}

// spawnRep runs one job in a fresh child process and returns its report,
// wall time and resource usage.
func spawnRep(j job) (*repReport, time.Duration, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, nil, err
	}
	j.Exec = time.Now().UnixNano()
	in, err := json.Marshal(j)
	if err != nil {
		return nil, 0, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdin = bytes.NewReader(in)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("job: %v\n%s", err, stderr.String())
	}
	var rep repReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, 0, nil, fmt.Errorf("job report: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, 0, nil, fmt.Errorf("no resource usage for the job process")
	}
	return &rep, wall, ru, nil
}

// minReps is the fewest jobs a run measures, however long they take.
const minReps = 3

// runBatch repeats a batch workload's job in fresh processes for
// cfg.seconds and checks every job's outputs against the CLIs' and the
// goldens. A traced run alternates traced and untraced jobs, so the
// tracing overhead is measured under the same conditions.
func runBatch(cfg config, wl workloadDef, r *result) error {
	want, err := cliDigests(cfg, wl.name)
	if err != nil {
		return err
	}
	r.ok("reference CLI outputs digested: %d", len(want))
	if cfg.size.Full {
		gold, err := goldens()
		if err != nil {
			return err
		}
		if g, ok := gold[wl.name][strconv.FormatInt(cfg.seed, 10)]; ok {
			for name, d := range want {
				if g[name] != d {
					r.fail("CLI %s for seed %d differs from the committed golden", name, cfg.seed)
				}
			}
			if !r.Correct {
				return nil // the program is wrong; its speed is beside the point
			}
			r.ok("CLI outputs match the committed goldens for seed %d", cfg.seed)
		}
	}

	var (
		walls, cpus, rss, setups, thr, slowest []float64
		results                                int
		tracedWalls                            []float64
		layers                                 = map[string][]float64{}
		flat                                   = map[string]int64{}
		spanBase                               int
	)
	origin := time.Now()
	deadline := origin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	need := minReps
	if cfg.trace {
		need = 2 * minReps
	}
	var last time.Duration
	for rep := 0; rep < need || time.Now().Add(last).Before(deadline); rep++ {
		j := job{Workload: wl.name, Seed: cfg.seed, Size: cfg.size, Trace: cfg.trace && rep%2 == 0}
		if j.Trace {
			j.Profile = filepath.Join(cfg.tmp, fmt.Sprintf("cpu-%d.pprof", rep))
		}
		for i := 0; i < 3; i++ {
			r.calibrate()
		}
		started := time.Since(origin)
		rr, wall, ru, err := spawnRep(j)
		if err != nil {
			return fmt.Errorf("job %d: %w", rep, err)
		}
		r.Attempted++
		last = wall
		for name, d := range want {
			if rr.Digests[name] != d {
				r.fail("job %d output %s differs from the CLI's", rep, name)
			}
		}
		if j.Trace {
			tracedWalls = append(tracedWalls, wall.Seconds())
			for k, v := range rr.Layers {
				layers[k] = append(layers[k], v)
			}
			if err := addProfile(j.Profile, flat); err != nil {
				return err
			}
			os.Remove(j.Profile)
			for _, sp := range rr.Spans {
				sp.ID += spanBase
				if sp.Parent != 0 {
					sp.Parent += spanBase
				}
				sp.Start += started.Nanoseconds()
				sp.End += started.Nanoseconds()
				r.spans = append(r.spans, sp)
			}
			spanBase += len(rr.Spans)
			continue
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (time.Duration(ru.Utime.Nano()) + time.Duration(ru.Stime.Nano())).Seconds())
		rss = append(rss, rr.RSSMB)
		setups = append(setups, rr.SetupS)
		thr = append(thr, float64(len(rr.Results))/wall.Seconds())
		results += len(rr.Results)
		slowest = append(slowest, maxOf(rr.Results))
	}
	r.Samples["results"] = results
	r.Samples["jobs"] = len(walls)
	r.JobWalls = walls
	r.Windows = map[string][]float64{"job_slowest_result_s": slowest}
	if r.Correct {
		r.ok("%d jobs reproduced the CLI outputs byte for byte", r.Attempted)
	}
	if len(walls) == 0 {
		return fmt.Errorf("no job completed")
	}
	if !cfg.trace {
		r.setMetrics(endToEnd, map[string]float64{
			"latency_ms":       median(walls) * 1e3,
			"tail_latency_ms":  median(slowest) * 1e3,
			"throughput_per_s": median(thr),
			"cpu_s":            median(cpus),
			"peak_rss_mb":      median(rss),
			"setup_s":          median(setups),
		})
		r.normalize()
		return nil
	}
	r.Samples["traced_jobs"] = len(tracedWalls)
	vals := map[string]float64{"trace.overhead_ms": (median(tracedWalls) - median(walls)) * 1e3}
	for k, v := range layers {
		vals[k] = median(v)
	}
	var total int64
	for _, ns := range flat {
		total += ns
	}
	for layer, ns := range flat {
		if total > 0 {
			vals[layer+".cpu_share"] = float64(ns) / float64(total)
		}
	}
	r.setMetrics(perLayer, vals)
	r.normalize()
	return nil
}

// Command flexserve runs one allocation strategy on one scenario — as a
// batch simulation that prints the cost ledger, or as a long-running
// placement service with admission control, checkpoint/restore, and a
// chaos harness (see SERVING.md).
//
// Batch examples:
//
//	flexserve -topo er -n 200 -scenario commuter-dynamic -alg onth
//	flexserve -topo rocketfuel -scenario timezones -alg offstat -rounds 600
//	flexserve -topo line -n 5 -scenario commuter-static -alg opt -rounds 200
//
// Serving examples:
//
//	flexserve -serve :8080 -statedir /var/lib/flexserve -alg onth -seed 7
//	flexserve -fire http://localhost:8080 -rate 500 -requests 20000 -seed 7
//	flexserve -replay /var/lib/flexserve -alg onth -seed 7
//	flexserve -serve :8080 -statedir d -faultinject kill:40
//
// Every random stream in the command is derived from -seed alone, so a
// batch run, a server, its load generator, and an offline replay are all
// reproducible from one number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flexserve: ")

	var (
		topoName = flag.String("topo", "er", "topology: er, line, grid, pa, smallworld, rocketfuel")
		n        = flag.Int("n", 200, "network size (er, line, grid, pa, smallworld)")
		metric   = flag.String("metric", "dense", "distance backend: dense, sparse[:rows], or landmark[:k] (see PERFORMANCE.md); dense and sparse are exact")
		start    = flag.String("start", "center", "initial server node: center (exact scan), approx (3-sweep estimate for huge substrates), or a node id")
		scenario = flag.String("scenario", "commuter-dynamic", "workload: commuter-dynamic, commuter-static, timezones, uniform, flash-crowd, diurnal, weekly")
		algName  = flag.String("alg", "onth", "strategy: onth, onbr, onbr-dyn, onbr-cluster, onsamp, wfa, onconf, opt, offstat, offbr, offth")
		rounds   = flag.Int("rounds", 500, "simulated rounds")
		lambda   = flag.Int("lambda", 10, "rounds per workload phase (λ)")
		T        = flag.Int("T", 0, "day phases / time periods (0 = derive from network size)")
		k        = flag.Int("k", 0, "server bound k (0 = unbounded)")
		maxConf  = flag.Int("maxconfigs", 0, "configuration-space bound for wfa/onconf (0 = the default 2^16); state is O(C·2^k), the Reset error reports the memory a larger space implies")
		beta     = flag.Float64("beta", 40, "migration cost β")
		createC  = flag.Float64("c", 400, "creation cost c")
		ra       = flag.Float64("ra", 2.5, "running cost of an active server")
		ri       = flag.Float64("ri", 0.5, "running cost of an inactive server")
		loadName = flag.String("load", "linear", "load function: linear, quadratic")
		seed     = flag.Int64("seed", 1, "random seed (every mode derives all randomness from it)")
		csvPath  = flag.String("csv", "", "write the per-round ledger to this CSV file")

		serveAddr = flag.String("serve", "", "run the streaming placement service on this address")
		replayDir = flag.String("replay", "", "replay the WAL in this state directory and print the ledger")
		fireURL   = flag.String("fire", "", "drive a running server at this base URL with generated load")

		stateDir  = flag.String("statedir", "", "serving state directory (WAL + checkpoints); empty = ephemeral")
		window    = flag.Int("window", serve.DefaultWindow, "requests per demand window (a simulated round)")
		queueCap  = flag.Int("queuecap", serve.DefaultQueueCap, "ingest queue bound")
		shedFrac  = flag.Float64("shed", serve.DefaultShedFraction, "queue occupancy above which non-critical classes are shed")
		ckptEvery = flag.Int("ckpt-every", serve.DefaultCheckpointEvery, "rounds between checkpoints")
		walSeg    = flag.Int("wal-segment", 0, "rotate the WAL every this many entries and truncate sealed segments behind checkpoints (0 = single ever-growing file)")
		tickEvery = flag.Duration("tick", 0, "close the demand window on this period even without load (0 = count-only)")
		faultSpec = flag.String("faultinject", "", "chaos fault: slow[:after[:delay]], flood[:after[:factor]], ckptfail[:after], kill[:after]")

		fireRate  = flag.Float64("rate", 200, "fire: requests per second")
		fireBurst = flag.Int("burst", 1, "fire: requests per batch")
		fireReqs  = flag.Int("requests", 2000, "fire: total requests to send")
		fireMix   = flag.String("mix", "critical=0.2,standard=0.6,batch=0.2", "fire: SLO class mix")
	)
	flag.Parse()

	modes := 0
	for _, m := range []string{*serveAddr, *replayDir, *fireURL} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		log.Fatal("pick one of -serve, -replay, -fire")
	}

	cfg := cmdConfig{
		topo: *topoName, n: *n, scenario: *scenario, alg: *algName,
		rounds: *rounds, lambda: *lambda, T: *T, k: *k, maxConfigs: *maxConf,
		beta: *beta, create: *createC, ra: *ra, ri: *ri,
		load: *loadName, metric: *metric, start: *start, seeds: seeds{*seed},
	}
	switch {
	case *serveAddr != "":
		fault, err := serve.ParseFault(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		runServe(cfg, serveOptions{
			addr: *serveAddr, dir: *stateDir, window: *window,
			queueCap: *queueCap, shed: *shedFrac, ckptEvery: *ckptEvery,
			segEntries: *walSeg, tickEvery: *tickEvery, fault: fault,
		})
	case *replayDir != "":
		runReplay(cfg, *replayDir, *window)
	case *fireURL != "":
		runFire(cfg, fireOptions{
			url: *fireURL, rate: *fireRate, burst: *fireBurst,
			requests: *fireReqs, mix: *fireMix,
		})
	default:
		runBatch(cfg, *csvPath)
	}
}

// seeds derives every random stream in the command from the single -seed
// flag. The topo/workload/alg offsets are pinned to the values batch mode
// has always used, so existing ledgers stay bit-identical; the serving
// modes get their own streams on top.
type seeds struct{ base int64 }

func (s seeds) topo() *rand.Rand     { return rand.New(rand.NewSource(s.base)) }
func (s seeds) workload() *rand.Rand { return rand.New(rand.NewSource(s.base + 1)) }
func (s seeds) alg() *rand.Rand      { return rand.New(rand.NewSource(s.base + 2)) }
func (s seeds) classes() *rand.Rand  { return rand.New(rand.NewSource(s.base + 3)) }
func (s seeds) fire() *rand.Rand     { return rand.New(rand.NewSource(s.base + 4)) }

// cmdConfig carries the parsed model flags into each mode.
type cmdConfig struct {
	topo, scenario, alg, load string
	metric, start             string
	n, rounds, lambda, T, k   int
	maxConfigs                int
	beta, create, ra, ri      float64
	seeds                     seeds
}

// buildEnv constructs the environment from the topology seed stream, under
// the distance backend -metric selects and the initial placement -start
// selects. The defaults (dense, center) reproduce the historical batch
// ledgers bit for bit; -metric sparse does too, since sparse is exact.
func (c cmdConfig) buildEnv() (*sim.Env, error) {
	g, err := buildTopology(c.topo, c.n, c.seeds.topo())
	if err != nil {
		return nil, err
	}
	var load cost.LoadFunc
	switch c.load {
	case "linear":
		load = cost.Linear{}
	case "quadratic":
		load = cost.Quadratic{}
	default:
		return nil, fmt.Errorf("unknown load function %q", c.load)
	}
	var m graph.Metric
	if c.metric != "" && c.metric != "dense" {
		if m, err = graph.NewMetric(g, c.metric); err != nil {
			return nil, err
		}
	}
	var startPlacement core.Placement
	switch c.start {
	case "", "center":
		// nil: NewEnvMetric runs the exact center scan.
	case "approx":
		startPlacement = core.NewPlacement(g.ApproxCenter())
	default:
		node, err := strconv.Atoi(c.start)
		if err != nil || node < 0 || node >= g.N() {
			return nil, fmt.Errorf("bad -start %q: want center, approx, or a node id in [0,%d)", c.start, g.N())
		}
		startPlacement = core.NewPlacement(node)
	}
	params := cost.Params{Beta: c.beta, Create: c.create, RunActive: c.ra, RunInactive: c.ri}
	return sim.NewEnvMetric(g, m, load, cost.AssignMinCost, params,
		core.Params{QueueCap: 3, Expiry: 20, MaxServers: c.k}, startPlacement)
}

// buildSequence constructs the scenario from the workload seed stream.
func (c cmdConfig) buildSequence(env *sim.Env) (*workload.Sequence, error) {
	T := c.T
	if T == 0 {
		T = workload.TForSize(env.Graph.N())
	}
	return buildWorkload(c.scenario, env, T, c.lambda, c.rounds, c.seeds.workload())
}

// fingerprint names the serving configuration; the WAL and checkpoints
// embed it, so a restart under different flags refuses to replay.
func (c cmdConfig) fingerprint(window int) string {
	fp := fmt.Sprintf("flexserve:%s:n=%d:alg=%s:load=%s:beta=%g:c=%g:ra=%g:ri=%g:k=%d:seed=%d:window=%d",
		c.topo, c.n, c.alg, c.load, c.beta, c.create, c.ra, c.ri, c.k, c.seeds.base, window)
	// Non-default backend or start change the simulated trajectory (an
	// approximate metric, a different initial server), so they join the
	// fingerprint; the defaults stay out of it, keeping state directories
	// written by earlier versions replayable.
	if c.metric != "" && c.metric != "dense" {
		fp += ":metric=" + c.metric
	}
	if c.start != "" && c.start != "center" {
		fp += ":start=" + c.start
	}
	return fp
}

// newStream is the deterministic stream factory the serving layer replays
// through: every call rebuilds the identical environment and algorithm
// from the seed streams. Offline strategies need the whole future and
// cannot serve an unbounded stream.
func (c cmdConfig) newStream() (*sim.Stream, error) {
	env, err := c.buildEnv()
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(c.alg) {
	case "opt", "offstat", "offbr", "offth":
		return nil, fmt.Errorf("offline strategy %q needs the full request sequence; -serve and -replay are online-only", c.alg)
	}
	alg, err := buildAlgorithm(c.alg, nil, c.seeds.alg(), c.maxConfigs)
	if err != nil {
		return nil, err
	}
	return sim.NewStream(env, alg, "stream")
}

func runBatch(c cmdConfig, csvPath string) {
	env, err := c.buildEnv()
	if err != nil {
		log.Fatal(err)
	}
	seq, err := c.buildSequence(env)
	if err != nil {
		log.Fatal(err)
	}
	alg, err := buildAlgorithm(c.alg, seq, c.seeds.alg(), c.maxConfigs)
	if err != nil {
		log.Fatal(err)
	}

	l, err := sim.Run(env, alg, seq)
	if err != nil {
		log.Fatal(err)
	}
	params := cost.Params{Beta: c.beta, Create: c.create, RunActive: c.ra, RunInactive: c.ri}
	fmt.Printf("topology:  %v (%s)\n", env.Graph, c.topo)
	fmt.Printf("workload:  %s\n", l.Scenario)
	fmt.Printf("costs:     %v\n", params)
	fmt.Printf("algorithm: %s\n\n", l.Algorithm)
	fmt.Printf("total cost   %12.2f\n", l.Total())
	fmt.Printf("  latency    %12.2f\n", l.Totals.Latency)
	fmt.Printf("  load       %12.2f\n", l.Totals.Load)
	fmt.Printf("  running    %12.2f\n", l.Totals.Run)
	fmt.Printf("  migration  %12.2f\n", l.Totals.Migration)
	fmt.Printf("  creation   %12.2f\n", l.Totals.Creation)
	fmt.Printf("peak servers %12d\n", l.MaxActive())

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteLedger(f, l); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", csvPath)
	}
}

type serveOptions struct {
	addr, dir        string
	window, queueCap int
	shed             float64
	ckptEvery        int
	segEntries       int
	tickEvery        time.Duration
	fault            serve.Fault
}

func runServe(c cmdConfig, opts serveOptions) {
	srv, err := serve.New(serve.Config{
		NewStream:       c.newStream,
		Fingerprint:     c.fingerprint(opts.window),
		Window:          opts.window,
		QueueCap:        opts.queueCap,
		ShedFraction:    opts.shed,
		CheckpointEvery: opts.ckptEvery,
		SegmentEntries:  opts.segEntries,
		Dir:             opts.dir,
		Fault:           opts.fault,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()

	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Catch SIGTERM before /readyz can answer: a drain requested the
	// moment the server reports ready must not kill it outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	stopTick := make(chan struct{})
	if opts.tickEvery > 0 {
		go func() {
			ticker := time.NewTicker(opts.tickEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					srv.Tick()
				case <-stopTick:
					return
				}
			}
		}()
	}

	log.Printf("serving on %s (statedir=%q window=%d queue=%d fault=%s)",
		opts.addr, opts.dir, opts.window, opts.queueCap, opts.fault.Kind)
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
	case err := <-errCh:
		log.Fatalf("http server: %v", err)
	}
	close(stopTick)
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	snap := srv.LedgerSnapshot()
	log.Printf("drained: %d rounds served, %d quarantined, total cost %.2f",
		snap.Rounds, snap.Quarantined, snap.Total)
}

// runReplay rebuilds the ledger offline from the state directory's WAL and
// prints it in exactly the GET /ledger wire shape, so recovery parity is a
// byte diff between this output and the endpoint's body.
func runReplay(c cmdConfig, dir string, window int) {
	engine, err := serve.Replay(serve.Config{
		NewStream:   c.newStream,
		Fingerprint: c.fingerprint(window),
		Window:      window,
		Dir:         dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(serve.DumpLedger(engine)); err != nil {
		log.Fatal(err)
	}
}

type fireOptions struct {
	url      string
	rate     float64
	burst    int
	requests int
	mix      string
}

// runFire drives a running server with the scenario's arrival stream: the
// same seeded sequence batch mode would simulate is flattened per-request
// (workload.Stream) and posted at the target rate with the given SLO mix.
func runFire(c cmdConfig, opts fireOptions) {
	if opts.rate <= 0 || opts.burst < 1 || opts.requests < 1 {
		log.Fatal("fire needs -rate > 0, -burst >= 1, -requests >= 1")
	}
	env, err := c.buildEnv()
	if err != nil {
		log.Fatal(err)
	}
	seq, err := c.buildSequence(env)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := workload.NewStream(seq)
	if err != nil {
		log.Fatal(err)
	}
	mix, err := parseMix(opts.mix)
	if err != nil {
		log.Fatal(err)
	}
	classRng := c.seeds.classes()
	jitterRng := c.seeds.fire()

	client := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimSuffix(opts.url, "/")
	interval := time.Duration(float64(opts.burst) / opts.rate * float64(time.Second))
	var sent, admitted, shed, errors int
	start := time.Now() //repcheck:allow-wallclock fire drives a live server; elapsed time is part of the report
	for sent < opts.requests {
		for b := 0; b < opts.burst && sent < opts.requests; b++ {
			node := stream.Next()
			class := pickClass(mix, classRng)
			sent++
			status, err := postIngest(client, base, node, class)
			switch {
			case err != nil:
				errors++
			case status == http.StatusAccepted:
				admitted++
			case status == http.StatusTooManyRequests:
				shed++
			default:
				errors++
			}
		}
		// Jitter the pacing ±20% so bursts don't phase-lock with the
		// server's window; the jitter stream is seeded, so a fire run is
		// reproducible.
		sleep := interval + time.Duration((jitterRng.Float64()-0.5)*0.4*float64(interval))
		time.Sleep(sleep)
	}
	out := map[string]interface{}{
		"sent":       sent,
		"admitted":   admitted,
		"shed":       shed,
		"errors":     errors,
		"duration_s": time.Since(start).Seconds(), //repcheck:allow-wallclock fire drives a live server; elapsed time is part of the report
		"scenario":   stream.Name(),
	}
	json.NewEncoder(os.Stdout).Encode(out)
	if errors > 0 {
		os.Exit(1)
	}
}

func postIngest(client *http.Client, base string, node int, class serve.Class) (int, error) {
	body := fmt.Sprintf(`{"node":%d,"count":1,"slo_class":%q}`, node, class)
	resp, err := client.Post(base+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// parseMix parses "critical=0.2,standard=0.6,batch=0.2" into cumulative
// class weights.
func parseMix(s string) ([]float64, error) {
	weights := make([]float64, 3)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want class=weight)", part)
		}
		class, err := serve.ParseClass(kv[0])
		if err != nil {
			return nil, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", kv[1])
		}
		weights[class] = w
	}
	total := weights[0] + weights[1] + weights[2]
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weight", s)
	}
	cum := make([]float64, 3)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	return cum, nil
}

func pickClass(cum []float64, rng *rand.Rand) serve.Class {
	x := rng.Float64()
	for i, c := range cum {
		if x < c {
			return serve.Class(i)
		}
	}
	return serve.Batch
}

func buildTopology(name string, n int, rng *rand.Rand) (*graph.Graph, error) {
	switch name {
	case "er":
		return gen.ErdosRenyi(n, 0.01, gen.DefaultOptions(), rng)
	case "line":
		return gen.Line(n, gen.DefaultOptions(), rng)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Grid(side, side, gen.DefaultOptions(), rng)
	case "pa":
		return gen.PreferentialAttachment(n, 2, gen.DefaultOptions(), rng)
	case "smallworld":
		// Ring + n/4 random chords: O(n) construction for the huge
		// substrates the sparse/landmark backends serve (see
		// EXPERIMENTS.md for the 10⁵-node recipe).
		chords := n / 4
		if chords < 1 {
			chords = 1
		}
		return gen.SmallWorld(n, chords, gen.DefaultOptions(), rng)
	case "rocketfuel":
		return topo.ASLike(topo.AS7018Config(), rng)
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

// scenarioAliases maps the CLI's short scenario names onto the canonical
// family names of experiments.BuildNamedScenario.
var scenarioAliases = map[string]string{
	"timezones": "time-zones",
	"diurnal":   "diurnal-multi-region",
	"weekly":    "weekday-weekend",
}

func buildWorkload(name string, env *sim.Env, T, lambda, rounds int, rng *rand.Rand) (*workload.Sequence, error) {
	name = strings.ToLower(name)
	if name == "uniform" {
		return workload.Uniform(env.Graph.N(), 1<<uint(T/2), rounds, rng)
	}
	if canonical, ok := scenarioAliases[name]; ok {
		name = canonical
	}
	// Delegate to the experiment harness's builder so the CLI scenarios
	// and the figure sweeps share one default derivation. Its errors pass
	// through: "unknown scenario" for a bad name, the workload validation
	// message otherwise.
	return experiments.BuildNamedScenario(name, env.Metric, T, lambda, rounds, 0, rng)
}

func buildAlgorithm(name string, seq *workload.Sequence, rng *rand.Rand, maxConfigs int) (sim.Algorithm, error) {
	switch strings.ToLower(name) {
	case "onth":
		return online.NewONTH(), nil
	case "onbr":
		return online.NewONBR(), nil
	case "onbr-dyn":
		return online.NewONBRDynamic(), nil
	case "onbr-cluster":
		return online.NewONBRClustered(8), nil
	case "onsamp":
		return online.NewONSAMP(), nil
	case "wfa":
		a := online.NewWFA()
		a.MaxConfigs = maxConfigs
		return a, nil
	case "onconf":
		a := online.NewONCONF(rng)
		a.MaxConfigs = maxConfigs
		return a, nil
	case "opt":
		return offline.NewOPT(seq), nil
	case "offstat":
		return offline.NewOFFSTAT(seq), nil
	case "offbr":
		return offline.NewOFFBR(seq), nil
	case "offth":
		return offline.NewOFFTH(seq), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

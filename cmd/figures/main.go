// Command figures regenerates every figure and table of the paper's
// evaluation and prints the plotted series. Every figure is a declarative
// cell grid (internal/experiments/runner), so the same run can execute
// in-process, across worker subprocesses, or sharded across machines — with
// byte-identical output. Tables go to stdout; progress and timing go to
// stderr, so stdout can be diffed across backends.
//
// Examples:
//
//	figures                        # all figures, paper-scale (takes a while)
//	figures -quick                 # all figures, scaled down
//	figures -only 15,16,17         # just the OFFSTAT/OPT ratio sweeps
//	figures -only rocketfuel -csvdir out/
//	figures -only ablations -quick
//	figures -only 3,4 -procs 4     # one pool of 4 workers serves both grids
//	figures -only 3 -shard 1/2 -partials parts/   # machine 1
//	figures -only 3 -shard 2/2 -partials parts/   # machine 2
//	figures -only 3 -shard 1/2 -procs 4 -partials parts/  # shard on a worker pool
//	figures -only 3 -merge -partials parts/       # fold the shards' results
//	figures -only 3 -serve-workers :9131          # coordinator: wait for workers
//	figures -worker -connect host:9131            # remote worker (any machine)
//	figures -only 3 -resume -partials parts/      # fill cells a drain left behind
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

// allFigures lists the default selection: the paper's evaluation section.
func allFigures() []string {
	return []string{
		"1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
		"11", "12", "13", "14", "15", "16", "17", "18", "19",
		"rocketfuel",
	}
}

// ablations lists the design-choice sweeps.
func ablations() []string {
	return []string{
		"ablation-queue", "ablation-expiry", "ablation-y",
		"ablation-theta", "ablation-load", "ablation-assign",
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	quickFlag := flag.Bool("quick", false, "scaled-down set-up (smaller networks, fewer runs)")
	only := flag.String("only", "", "comma-separated figure ids (e.g. 3,11,rocketfuel,ablations); empty = all figures")
	csvDir := flag.String("csvdir", "", "also write one CSV per figure into this directory")
	seed := flag.Int64("seed", 1, "base random seed")
	metric := flag.String("metric", "dense", "distance backend: dense, sparse[:rows], or landmark[:k]; dense and sparse are exact and produce identical output")
	maxConfigs := flag.Int("maxconfigs", 0, "configuration-space bound for the enumeration-based algorithms (WFA/ONCONF); 0 keeps each experiment's default")
	procs := flag.Int("procs", 0, "fan the whole selection's cell grids out over this many shared worker subprocesses")
	shard := flag.String("shard", "", "evaluate only slice i of m of each grid, as i/m, and write partial results")
	partials := flag.String("partials", "", "directory for shard partial files (required with -shard, -merge, -resume)")
	merge := flag.Bool("merge", false, "merge shard partials from -partials and print the tables")
	serveWorkers := flag.String("serve-workers", "", "coordinator mode: listen on this address for remote -connect workers instead of spawning subprocesses")
	deadline := flag.Duration("deadline", 0, "fixed per-cell response deadline for pooled backends (0 = adaptive over observed cell times)")
	resume := flag.Bool("resume", false, "evaluate the cells missing from the partials in -partials and write a resume partial")
	faultInject := flag.String("faultinject", "", "testing: inject one worker fault, kind:N[:delay] with kind exit|wedge|slow|garbage|disconnect; exit:N exits right after response N. The first spawned worker gets it with -procs (through FIGURES_FAULT), this worker with -worker -connect")
	workerFlag := flag.Bool("worker", false, "internal: serve cells on stdin/stdout (SPEC lines select the grid and its -seed, -quick and -metric; only -maxconfigs is the worker's own), or over TCP with -connect")
	connect := flag.String("connect", "", "with -worker: dial the coordinator at this address and serve cells over TCP, reconnecting with backoff")
	flag.Parse()

	fault, err := runner.ParseFault(*faultInject)
	if err != nil {
		log.Fatal(err)
	}
	if *workerFlag {
		// The coordinator's SPEC lines carry the options cell values depend
		// on, so a worker started with other ones still fills the grid right.
		build := func(name, options string) (*runner.Spec, error) {
			o, err := experiments.ParseOptions(options)
			if err != nil {
				return nil, err
			}
			o.MaxConfigs = *maxConfigs
			return experiments.NewSpec(name, o)
		}
		if *connect != "" {
			err = runner.ConnectWorker(*connect, build, runner.WorkerOptions{Fault: fault, Logf: log.Printf})
		} else {
			err = runWorker(build)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *connect != "" {
		log.Fatal("-connect requires -worker")
	}

	shardIdx, shardTotal, err := parseShard(*shard)
	if err != nil {
		log.Fatal(err)
	}
	if (shardTotal > 0 || *merge || *resume) && *partials == "" {
		log.Fatal("-shard, -merge, and -resume require -partials")
	}
	modes := 0
	for _, on := range []bool{shardTotal > 0, *merge, *resume, *serveWorkers != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		log.Fatal("-shard, -merge, -resume, and -serve-workers are mutually exclusive")
	}
	if shardTotal > 0 && *csvDir != "" {
		log.Fatal("-shard emits partial files only; use -csvdir on the -merge run")
	}
	if fault != nil && *procs <= 0 {
		log.Fatal("-faultinject requires -procs (or a -worker -connect worker)")
	}
	selected, err := selectFigures(*only)
	if err != nil {
		log.Fatal(err)
	}
	for _, dir := range []string{*csvDir, *partials} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
	}

	opts := experiments.Options{Quick: *quickFlag, Seed: *seed, Metric: *metric, MaxConfigs: *maxConfigs}
	cfg := runner.Config{Deadline: *deadline}
	if *serveWorkers != "" {
		tr, err := runner.Listen(*serveWorkers)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("waiting for workers on %s", tr.Addr())
		pool := runner.NewPool(tr, cfg)
		defer pool.Close()
		if err := runPooled(pool, selected, opts, *csvDir, *partials); err != nil {
			log.Fatal(err)
		}
		return
	}
	// -procs composes with -shard and -resume: the slice's cells are routed
	// through the same fault-tolerant worker pool the full run uses, instead
	// of the in-process Local pool. -merge never evaluates cells, so it
	// stays local.
	var pool *runner.Pool
	if *procs > 0 && !*merge {
		pool = runner.NewPool(&runner.PipeTransport{N: *procs, Command: workerCommand(*maxConfigs, fault)}, cfg)
		defer pool.Close()
	}
	if pool != nil && shardTotal == 0 && !*resume {
		if err := runPooled(pool, selected, opts, *csvDir, *partials); err != nil {
			log.Fatal(err)
		}
		return
	}

	for _, name := range selected {
		start := time.Now() //repcheck:allow-wallclock progress log only; figure bytes come from seeded runs
		sp, err := experiments.NewSpec(name, opts)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case shardTotal > 0:
			if err := runShard(sp, shardIdx, shardTotal, *partials, pool); err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
		case *resume:
			if err := runResume(sp, *partials, pool); err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
		case *merge:
			tab, err := mergeShards(sp, *partials)
			if err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
			emit(name, tab, *csvDir)
		default:
			tab, err := runner.Run(sp, nil)
			if err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
			emit(name, tab, *csvDir)
		}
		log.Printf("figure %s: %v elapsed", name, time.Since(start).Round(time.Millisecond)) //repcheck:allow-wallclock progress log on stderr, not figure output
	}
}

// runPooled evaluates the whole selection on one shared worker pool — the
// same workers (subprocesses or remote TCP workers) serve cells from
// successive figures (announced with SPEC protocol lines), so workers stay
// busy across figure boundaries instead of draining and respawning per
// figure. Tables print in selection order as each grid completes.
//
// SIGINT/SIGTERM drains instead of killing: the pool stops feeding cells,
// collects in-flight results under the drain deadline, and every completed
// cell of the not-yet-printed figures is written as a resumable partial
// (<name>.shard-drain.json, into -partials or the current directory) for
// `figures -resume` + `figures -merge` to finish without re-evaluating.
func runPooled(pool *runner.Pool, selected []string, opts experiments.Options, csvDir, partialsDir string) error {
	specs := make([]*runner.Spec, len(selected))
	for i, name := range selected {
		sp, err := experiments.NewSpec(name, opts)
		if err != nil {
			return err
		}
		specs[i] = sp
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		signal.Stop(sig) // a second signal kills the process the default way
		log.Printf("received %v, draining: collecting in-flight cells, then writing partials", s)
		pool.Drain()
	}()

	start := time.Now() //repcheck:allow-wallclock progress log only; figure bytes come from seeded runs
	grids, err := pool.RunAll(specs, nil, func(i int, g *runner.Grid) error {
		tab, rerr := runner.Reduce(specs[i], g)
		if rerr != nil {
			return fmt.Errorf("figure %s: %w", selected[i], rerr)
		}
		emit(selected[i], tab, csvDir)
		log.Printf("figure %s: done at %v", selected[i], time.Since(start).Round(time.Millisecond)) //repcheck:allow-wallclock progress log on stderr, not figure output
		return nil
	})
	close(sig)
	if errors.Is(err, runner.ErrDrained) {
		dir := partialsDir
		if dir == "" {
			dir = "."
		}
		// Every figure gets a partial — the completed (already printed)
		// ones too — so one `-resume` + `-merge` over the same selection
		// reproduces the full output byte-identically.
		missing := 0
		for i, g := range grids {
			p := g.Partial(0, 0)
			missing += len(p.MissingCells())
			path := filepath.Join(dir, selected[i]+".shard-drain.json")
			if werr := writeFileAtomic(path, func(w io.Writer) error {
				return trace.WritePartial(w, p)
			}); werr != nil {
				return fmt.Errorf("drained, but writing %s failed: %w", path, werr)
			}
			log.Printf("figure %s: drained with %d of %d cells done; wrote %s",
				selected[i], len(p.Results), p.Cells, path)
		}
		return fmt.Errorf("run drained: %s", drainedNextStep(missing, dir))
	}
	return err
}

// drainedNextStep names the follow-up after a drain: -resume is suggested
// only when cells are actually missing — a drain that landed after the
// last cell completed needs only the -merge.
func drainedNextStep(missing int, dir string) string {
	if missing > 0 {
		return fmt.Sprintf("%d cells unevaluated; finish with -resume and -merge against %s", missing, dir)
	}
	return fmt.Sprintf("every cell completed; print the tables with -merge against %s", dir)
}

// runResume finishes an interrupted run: it merges whatever partials exist
// for the figure (drained, sharded, or earlier resumes — any mix), computes
// the missing cells, evaluates exactly those in-process, and writes them as
// <name>.shard-resume.json next to the others, so a following -merge sees
// the complete grid. Output is byte-identical to an uninterrupted run: cell
// results depend only on (figure, options, cell index), never on which
// process computed them.
func runResume(sp *runner.Spec, dir string, pool *runner.Pool) error {
	merged, err := loadMerged(sp, dir)
	if err != nil {
		return err
	}
	missing := merged.MissingCells()
	if len(missing) == 0 {
		log.Printf("figure %s: partials already cover all %d cells; nothing to resume", sp.Name, merged.Cells)
		return nil
	}
	log.Printf("figure %s: resuming %d of %d cells", sp.Name, len(missing), merged.Cells)
	g, err := runCellSubset(sp, missing, pool)
	if err != nil {
		return err
	}
	p := g.Partial(0, 0)
	path := filepath.Join(dir, sp.Name+".shard-resume.json")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return trace.WritePartial(w, p)
	}); err != nil {
		return err
	}
	log.Printf("figure %s: wrote %s (%d cells, %v cell time)",
		sp.Name, path, len(p.Results), time.Duration(p.TotalNanos()).Round(time.Millisecond))
	return nil
}

// emit prints the table to stdout and optionally writes its CSV.
func emit(name string, tab *trace.Table, csvDir string) {
	if err := trace.Render(os.Stdout, tab); err != nil {
		log.Fatalf("figure %s: %v", name, err)
	}
	if csvDir != "" {
		if err := writeCSV(csvDir, name, tab); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
	}
}

// writeFileAtomic writes via a temp file in the destination's directory and
// renames it into place, so a killed run never leaves a truncated partial
// or CSV for a later -merge run to ingest.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has happened
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes mode-0600 files; restore the world-readable mode a
	// plain os.Create would have given shareable artifacts.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeCSV emits one figure's table into dir as figure-<name>.csv.
func writeCSV(dir, name string, tab *trace.Table) error {
	return writeFileAtomic(filepath.Join(dir, "figure-"+name+".csv"), func(w io.Writer) error {
		return trace.WriteTable(w, tab)
	})
}

// runWorker serves cells over stdin/stdout — the subprocess half of the
// pooled backend. The coordinator selects grids and their options with SPEC
// protocol lines, so one worker process serves cells from successive
// figures and both sides build the identical grid; FIGURES_FAULT
// optionally injects one fault (-faultinject syntax).
func runWorker(build func(name, options string) (*runner.Spec, error)) error {
	fault, err := runner.ParseFault(os.Getenv("FIGURES_FAULT"))
	if err != nil {
		return err
	}
	err = runner.ServePool(build, os.Stdin, os.Stdout, runner.ServeOptions{Fault: fault})
	if errors.Is(err, runner.ErrBye) {
		return nil
	}
	return err
}

// workerCommand re-invokes this binary in -worker mode with the
// coordinator's memory bound; every other option arrives in the session.
// With fault injection, only the first spawned worker gets the fault
// (passed via the FIGURES_FAULT environment variable) — respawned
// replacements are healthy, so the requeued cells complete.
func workerCommand(maxConfigs int, fault *runner.Fault) func() (*exec.Cmd, error) {
	var spawned atomic.Int64
	return func() (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "-worker", "-maxconfigs", strconv.Itoa(maxConfigs))
		cmd.Stderr = os.Stderr
		if fault != nil && spawned.Add(1) == 1 {
			cmd.Env = append(os.Environ(), "FIGURES_FAULT="+fault.String())
		}
		return cmd, nil
	}
}

// runShard evaluates the modulo slice idx of total of the grid and writes
// the mergeable partial file <partials>/<name>.shard-<i>-of-<m>.json.
func runShard(sp *runner.Spec, idx, total int, dir string, pool *runner.Pool) error {
	idxs, err := runner.ShardCells(sp.Cells(), idx, total)
	if err != nil {
		return err
	}
	g, err := runCellSubset(sp, idxs, pool)
	if err != nil {
		return err
	}
	p := g.Partial(idx, total)
	path := filepath.Join(dir, shardFile(sp.Name, idx, total))
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return trace.WritePartial(w, p)
	}); err != nil {
		return err
	}
	log.Printf("figure %s: wrote %s (%d of %d cells, %v cell time)",
		sp.Name, path, len(p.Results), p.Cells, time.Duration(p.TotalNanos()).Round(time.Millisecond))
	return nil
}

// runCellSubset evaluates an explicit cell subset, on the shared worker
// pool when one exists (-procs composed with -shard/-resume) and on the
// in-process Local pool otherwise. Both produce identical grids — cell
// results depend only on (figure, options, cell index).
func runCellSubset(sp *runner.Spec, idxs []int, pool *runner.Pool) (*runner.Grid, error) {
	if pool == nil {
		return runner.Local{Cells: idxs}.Run(sp)
	}
	grids, err := pool.RunAll([]*runner.Spec{sp}, [][]int{idxs}, nil)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

func shardFile(name string, idx, total int) string {
	return fmt.Sprintf("%s.shard-%d-of-%d.json", name, idx, total)
}

// loadMerged reads and merges every partial file of one figure, reporting
// each shard's recorded cell time, and validates the options match the run.
func loadMerged(sp *runner.Spec, dir string) (*trace.Partial, error) {
	paths, err := filepath.Glob(filepath.Join(dir, sp.Name+".shard-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no partials for %s in %s", sp.Name, dir)
	}
	sort.Strings(paths)
	parts := make([]*trace.Partial, 0, len(paths))
	for _, path := range paths {
		fh, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		p, err := trace.ReadPartial(fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		log.Printf("figure %s: shard %d/%d: %d cells, %v cell time",
			sp.Name, p.Shard, p.Shards, len(p.Results), time.Duration(p.TotalNanos()).Round(time.Millisecond))
		parts = append(parts, p)
	}
	merged, err := trace.MergePartials(parts...)
	if err != nil {
		return nil, err
	}
	if merged.Options != sp.Options {
		return nil, fmt.Errorf("partials were produced with options %q, run asked for %q", merged.Options, sp.Options)
	}
	return merged, nil
}

// mergeShards folds every partial file of one figure back into the full
// grid and reduces it — the output is byte-identical to a single-process
// run of the same figure. Per-shard cell-time totals go to stderr.
func mergeShards(sp *runner.Spec, dir string) (*trace.Table, error) {
	merged, err := loadMerged(sp, dir)
	if err != nil {
		return nil, err
	}
	if err := checkCoverage(merged); err != nil {
		return nil, err
	}
	g, err := runner.FromPartial(sp, merged)
	if err != nil {
		return nil, err
	}
	return runner.Reduce(sp, g)
}

// checkCoverage rejects a merged partial that does not cover the whole
// grid, naming the missing cell indices — the guard that keeps -merge from
// silently reducing an interrupted run. A -resume run fills exactly these
// cells.
func checkCoverage(merged *trace.Partial) error {
	missing := merged.MissingCells()
	if len(missing) == 0 {
		return nil
	}
	shown := missing
	suffix := ""
	if len(shown) > 20 {
		shown = shown[:20]
		suffix = fmt.Sprintf(", ... (%d more)", len(missing)-20)
	}
	idxs := make([]string, len(shown))
	for i, c := range shown {
		idxs[i] = strconv.Itoa(c)
	}
	return fmt.Errorf("partials cover %d of %d cells; missing cells %s%s (run the missing shards, or figures -resume)",
		len(merged.Results), merged.Cells, strings.Join(idxs, ","), suffix)
}

// parseShard parses "i/m" into a 1-based shard split; "" means no shard.
func parseShard(s string) (idx, total int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("invalid -shard %q, want i/m", s)
	}
	idx, err1 := strconv.Atoi(s[:i])
	total, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || total < 1 || idx < 1 || idx > total {
		return 0, 0, fmt.Errorf("invalid -shard %q, want i/m with 1 ≤ i ≤ m", s)
	}
	return idx, total, nil
}

// selectFigures resolves the -only flag into spec names: figure ids,
// "ablations" for the whole ablation group, "all" for the paper figures,
// "ablation-"-less shorthands, and any registered spec name (the variant
// and scenario sweeps).
func selectFigures(only string) ([]string, error) {
	if only == "" {
		return allFigures(), nil
	}
	known := map[string]bool{}
	for _, name := range experiments.SpecNames() {
		known[name] = true
	}
	var out []string
	for _, tok := range strings.Split(only, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "":
			continue
		case tok == "ablations":
			out = append(out, ablations()...)
		case tok == "all":
			out = append(out, allFigures()...)
		case known[tok]:
			out = append(out, tok)
		case known["ablation-"+tok]:
			out = append(out, "ablation-"+tok)
		default:
			return nil, fmt.Errorf("unknown figure %q", tok)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no figures match -only=%q", only)
	}
	return out, nil
}

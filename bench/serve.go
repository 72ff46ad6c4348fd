package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// serveArgs are the model flags of the placement service both serve
// workloads drive — ONTH on a 200-node Erdős–Rényi substrate — shared by
// the server and the replay that checks its ledger.
func serveArgs(sz size, seed int64) []string {
	return []string{"-topo", "er", "-n", strconv.Itoa(sz.ServeN), "-alg", "onth", "-seed", strconv.FormatInt(seed, 10)}
}

// server is one flexserve -serve process.
type server struct {
	cmd     *exec.Cmd
	url     string
	log     bytes.Buffer // stderr; read only after done
	done    chan struct{}
	waitErr error
}

// startServer execs flexserve -serve on a free loopback port with a fresh
// state directory and returns once /readyz answers 200, with the time that
// took.
func startServer(cfg config, dir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	args := append([]string{"-serve", addr, "-statedir", dir, "-wal-segment", "4096"}, serveArgs(cfg.size, cfg.seed)...)
	s := &server{url: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(cfg.bin, "flexserve"), args...)
	s.cmd.Stderr = &s.log
	s.cmd.SysProcAttr = dieWithParent()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("flexserve exited before ready: %v\n%s", s.waitErr, s.log.String())
		default:
		}
		if resp, err := client.Get(s.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("flexserve not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("flexserve did not drain within 30s")
	}
	if s.waitErr != nil {
		return fmt.Errorf("flexserve: %v\n%s", s.waitErr, s.log.String())
	}
	return nil
}

// kill ends the server if it still runs and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

// feeder produces ingest bodies from the seeded arrival stream flexserve
// -fire uses: access points from workload.NewStream over the
// commuter-dynamic sequence, SLO classes from seed+3 in the mix
// critical 0.2, standard 0.6, batch 0.2.
type feeder struct {
	mu      sync.Mutex
	stream  *workload.Stream
	classes *rand.Rand
	per     int // requests per body; above 1 the body is an array
}

func newFeeder(sz size, seed int64, per int) (*feeder, error) {
	m := model{topo: "er", n: sz.ServeN, scenario: "commuter-dynamic", rounds: 500}
	g, err := m.topology(seed)
	if err != nil {
		return nil, err
	}
	metric, err := m.backend(g)
	if err != nil {
		return nil, err
	}
	env, err := m.env(g, metric)
	if err != nil {
		return nil, err
	}
	seq, err := m.sequence(env, seed)
	if err != nil {
		return nil, err
	}
	st, err := workload.NewStream(seq)
	if err != nil {
		return nil, err
	}
	return &feeder{stream: st, classes: seeded(seed + 3), per: per}, nil
}

// next returns the next body's requests, each an encoded ingest object.
func (f *feeder) next() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	reqs := make([]string, f.per)
	for i := range reqs {
		class := serve.Batch
		switch x := f.classes.Float64(); {
		case x < 0.2:
			class = serve.Critical
		case x < 0.8:
			class = serve.Standard
		}
		reqs[i] = fmt.Sprintf(`{"node":%d,"count":1,"slo_class":%q}`, f.stream.Next(), class)
	}
	return reqs
}

// body encodes requests as one ingest body: a bare object for a
// single-request feeder, an array otherwise.
func (f *feeder) body(reqs []string) []byte {
	if f.per == 1 {
		return []byte(reqs[0])
	}
	return []byte("[" + strings.Join(reqs, ",") + "]")
}

// newClient is one generator connection.
func newClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends one ingest body and returns how many of its requests the
// server admitted (all of them on 202, the admitted prefix on 429/503).
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Admitted int `json:"admitted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	if err != nil {
		return 0, fmt.Errorf("ingest answered %d: %w", resp.StatusCode, err)
	}
	return ack.Admitted, nil
}

// generators is the number of connections each load phase uses.
const generators = 2

// openSample is one POST of an open loop.
type openSample struct {
	lat      float64 // ms from when it was due to its acknowledgement
	late     float64 // ms the generator started it after it could have
	admitted int     // requests the server admitted
	traced   bool    // sent in a traced second
}

// openLoop posts bodies[i] at start+i/rate on generators connections. A
// connection picks the next due POST as soon as it is free, so a stall
// delays every POST queued behind it and the delay counts in their
// latency. With a tracer, odd seconds are traced, and each of their POSTs
// is a span whose request id is firstID+i.
func openLoop(url string, bodies [][]byte, rate float64, firstID int64, tr *tracer) []openSample {
	samples := make([]openSample, len(bodies))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	interval := float64(time.Second) / rate
	t0 := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < generators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				due := t0.Add(time.Duration(float64(i) * interval))
				ready := time.Now()
				if d := due.Sub(ready); d > 0 {
					time.Sleep(d)
					ready = due
				}
				sent := time.Now()
				n, _ := post(c, url, bodies[i]) // a failed POST admits nothing, which counts as failed
				done := time.Now()
				traced := tr != nil && int(due.Sub(t0)/time.Second)%2 == 1
				samples[i] = openSample{
					lat:      float64(done.Sub(due)) / 1e6,
					late:     float64(sent.Sub(ready)) / 1e6,
					admitted: n,
					traced:   traced,
				}
				if traced {
					tr.record("POST /ingest", 0, firstID+int64(i), sent, done)
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedResult is one or more closed-loop phases.
type closedResult struct {
	sent, admitted, posts int
	shed                  int       // requests refused and sent again
	rates                 []float64 // requests admitted per second, per phase
}

// shedBackoff is how long the closed loop waits before resending requests
// the server shed. Shorter than the server's Retry-After, so the queue
// never runs dry and the phase measures the consumer, not the client's
// patience.
const shedBackoff = 2 * time.Millisecond

// closedLoop keeps generators connections busy for d, each sending its
// next POST when the previous one returns. Arrays are admitted faster than
// the engine consumes them, so the queue reaches its shed threshold; the
// refused tail of a POST is sent again after shedBackoff, as a client
// honouring 429 would.
func closedLoop(url string, f *feeder, d time.Duration) closedResult {
	var (
		mu  sync.Mutex
		res closedResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < generators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(deadline) {
				reqs := f.next()
				var posts, admitted, shed int
				for len(reqs) > 0 {
					n, err := post(c, url, f.body(reqs))
					posts++
					admitted += n
					if err != nil || n == len(reqs) {
						break // a transport error fails the rest
					}
					shed += len(reqs) - n
					reqs = reqs[n:]
					time.Sleep(shedBackoff)
				}
				mu.Lock()
				res.posts += posts
				res.sent += f.per
				res.admitted += admitted
				res.shed += shed
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.rates = []float64{float64(res.admitted) / time.Since(start).Seconds()}
	return res
}

// add appends another closed-loop phase's counts and rates.
func (c *closedResult) add(o closedResult) {
	c.sent += o.sent
	c.admitted += o.admitted
	c.posts += o.posts
	c.shed += o.shed
	c.rates = append(c.rates, o.rates...)
}

// readerResult is what the reader saw during the open loop.
type readerResult struct {
	placement, metrics []float64 // ms per GET
	depthMax           int
}

// add appends what the reader saw during another open-loop phase.
func (r *readerResult) add(o readerResult) {
	r.placement = append(r.placement, o.placement...)
	r.metrics = append(r.metrics, o.metrics...)
	r.depthMax = max(r.depthMax, o.depthMax)
}

// reader polls GET /placement at 20/s and GET /metrics every metricsEvery
// until stop closes; done closes when it has returned.
func reader(url string, metricsEvery time.Duration, tr *tracer, stop <-chan struct{}, done chan<- readerResult) {
	var res readerResult
	defer func() { done <- res }()
	c := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, into any) (float64, error) {
		start := time.Now()
		resp, err := c.Get(url + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if into != nil {
			err = json.NewDecoder(resp.Body).Decode(into)
		}
		io.Copy(io.Discard, resp.Body)
		end := time.Now()
		if tr != nil {
			tr.record("GET "+path, 0, 0, start, end)
		}
		return float64(end.Sub(start)) / 1e6, err
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	lastMetrics := time.Time{}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if ms, err := get("/placement", nil); err == nil {
			res.placement = append(res.placement, ms)
		}
		if time.Since(lastMetrics) >= metricsEvery {
			lastMetrics = time.Now()
			var snap serve.Snapshot
			if ms, err := get("/metrics", &snap); err == nil {
				res.metrics = append(res.metrics, ms)
				res.depthMax = max(res.depthMax, snap.QueueDepth)
			}
		}
	}
}

// procCPU returns the user+system CPU time of a live process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		t, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// peakRSS returns a process's peak resident set in MiB (VmHWM). Rusage
// would not do: a child exec'd from a vfork inherits its parent's
// high-water mark.
func peakRSS(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// getJSON fetches url and decodes it into v, returning the raw body.
func getJSON(url string, v any) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return body, json.Unmarshal(body, v)
}

// waitLedger returns GET /ledger once the server has applied cursor
// entries, i.e. its queue has drained.
func waitLedger(url string, cursor int) ([]byte, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var l serve.LedgerDump
		body, err := getJSON(url+"/ledger", &l)
		if err != nil {
			return nil, err
		}
		if l.Cursor == cursor {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ledger cursor %d, want %d admitted entries", l.Cursor, cursor)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runServe runs one serve workload: set-up timed over several server
// starts, then ServePhases pairs of an open loop at a fixed rate with a
// reader (two thirds of the time) and a closed loop (one third). Before
// each open loop the queue the closed loop filled has drained. The final
// ledger must cover every admitted request and byte-match flexserve
// -replay of the run's own state directory.
func runServe(cfg config, wl workloadDef, r *result) error {
	per, rate := 1, cfg.size.SingleRate
	if wl.name == "serve-batch" {
		per, rate = cfg.size.BatchArray, cfg.size.BatchRate
	}
	f, err := newFeeder(cfg.size, cfg.seed, per)
	if err != nil {
		return err
	}
	openS := cfg.seconds * 2 / 3
	phases := cfg.size.ServePhases
	closedPhase := time.Duration(cfg.seconds / 3 / float64(phases) * float64(time.Second))
	warm := int(rate * min(1, openS/10))
	perPhase := max(int(rate*openS/float64(phases)), 1)
	bodies := make([][]byte, warm+phases*perPhase)
	for i := range bodies {
		bodies[i] = f.body(f.next())
	}

	var setups []float64
	var srv *server
	dir := filepath.Join(cfg.tmp, "state")
	for i := 0; i < cfg.size.ServeStarts; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, d, err := startServer(cfg, dir)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < cfg.size.ServeStarts-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	defer srv.kill()
	pid := srv.cmd.Process.Pid

	var tr *tracer
	metricsEvery := time.Second
	if cfg.trace {
		tr = newTracer()
		metricsEvery = 100 * time.Millisecond
	}
	// The generator's own garbage collection would count against the
	// server in latencies timed from each POST's due time; collect rarely.
	// One processor for the generator leaves the server at least one of a
	// small host's CPUs, so the split between the two does not wander.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		open      []openSample
		closed    closedResult
		rd        readerResult
		cpuPerReq []float64 // server CPU seconds per admitted request, per open phase
		// per open phase: ack p50 and p90 in ms, and host steal in s
		phaseP50, phaseP90, phaseSteal []float64
		admitted                       int
		ledger                         []byte
	)
	gen0 := selfCPU()
	for p, next := 0, 0; p < phases; p++ {
		// The host's speed is sampled between the phases, while the server
		// is idle, never during them.
		r.calibrate()
		end := next + perPhase
		if p == 0 {
			end += warm
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		steal0 := stealSeconds()
		stop, readerDone := make(chan struct{}), make(chan readerResult, 1)
		go reader(srv.url, metricsEvery, tr, stop, readerDone)
		samples := openLoop(srv.url, bodies[next:end], rate, int64(next)+1, tr)
		close(stop)
		rd.add(<-readerDone)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		phaseSteal = append(phaseSteal, stealSeconds()-steal0)
		skip := 0
		if p == 0 {
			skip = min(warm, len(samples))
		}
		var phaseLat []float64
		for _, s := range samples[skip:] {
			phaseLat = append(phaseLat, s.lat)
		}
		phaseP50 = append(phaseP50, median(phaseLat))
		phaseP90 = append(phaseP90, percentile(phaseLat, 0.9))
		n := 0
		for _, s := range samples {
			n += s.admitted
		}
		if n > 0 {
			cpuPerReq = append(cpuPerReq, (cpu1-cpu0).Seconds()/float64(n))
		}
		admitted += n
		open = append(open, samples...)
		next = end

		r.calibrate()
		c := closedLoop(srv.url, f, closedPhase)
		closed.add(c)
		admitted += c.admitted
		// The queue drains before the next phase, so an open loop never
		// starts against a queue the closed loop filled.
		if ledger, err = waitLedger(srv.url, admitted); err != nil {
			r.fail("%v", err)
			break
		}
	}
	r.calibrate()
	genCPU := selfCPU() - gen0
	if ledger != nil {
		r.ok("ledger cursor equals the %d admitted requests", admitted)
	}

	timed := open[min(warm, len(open)):]
	late := make([]float64, len(timed))
	for i, s := range timed {
		late[i] = s.late
	}
	r.Attempted = len(open)*per + closed.sent
	r.Failed = r.Attempted - admitted
	r.Samples["open_posts"] = len(timed)
	r.Samples["open_warmup_posts"] = len(open) - len(timed)
	r.Samples["closed_posts"] = closed.posts
	r.Samples["placement_gets"] = len(rd.placement)
	r.Samples["metrics_gets"] = len(rd.metrics)
	r.Samples["server_starts"] = len(setups)
	r.Samples["phases"] = len(closed.rates)
	r.Windows = map[string][]float64{"closed_rate_per_s": closed.rates, "server_cpu_s_per_req": cpuPerReq,
		"open_p50_ms": phaseP50, "open_p90_ms": phaseP90, "open_steal_s": phaseSteal}
	lateP99, lateMax := percentile(late, 0.99), maxOf(late)
	if lateP99 > maxLateMs {
		r.Valid = false
		r.Checks = append(r.Checks, fmt.Sprintf("INVALID open-loop generator started 1%% of POSTs over %.2f ms late (limit %.0f ms); --compare skips this run", lateP99, maxLateMs))
	} else {
		r.ok("open-loop generator started 99%% of POSTs within %.3f ms of their time (at most %.2f ms late)", lateP99, lateMax)
	}
	var snap serve.Snapshot
	if _, err := getJSON(srv.url+"/metrics", &snap); err != nil {
		return err
	}
	rss, err := peakRSS(strconv.Itoa(pid))
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	replayStart := time.Now()
	cmd := exec.Command(filepath.Join(cfg.bin, "flexserve"), append([]string{"-replay", dir}, serveArgs(cfg.size, cfg.seed)...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	replayed, err := cmd.Output()
	replayS := time.Since(replayStart).Seconds()
	if err != nil {
		return fmt.Errorf("flexserve -replay: %v\n%s", err, stderr.String())
	}
	if ledger != nil && !bytes.Equal(ledger, replayed) {
		r.fail("GET /ledger differs from flexserve -replay of the state directory")
	} else if ledger != nil {
		r.ok("GET /ledger byte-matches flexserve -replay")
	}

	if !cfg.trace {
		r.setMetrics(endToEnd, map[string]float64{
			"latency_ms":       slices.Min(phaseP50),
			"tail_latency_ms":  slices.Min(phaseP90),
			"throughput_per_s": median(closed.rates),
			"cpu_s":            median(cpuPerReq) * 1e4,
			"peak_rss_mb":      rss,
			"setup_s":          median(setups),
		})
		r.normalize("latency_ms", "tail_latency_ms")
		return nil
	}

	var tracedLat, plainLat []float64
	for _, s := range timed {
		if s.traced {
			tracedLat = append(tracedLat, s.lat)
		} else {
			plainLat = append(plainLat, s.lat)
		}
	}
	std := snap.Classes[serve.Standard.String()]
	vals := map[string]float64{
		"serve.metrics_get_p50_ms":    median(rd.metrics),
		"serve.metrics_get_max_ms":    maxOf(rd.metrics),
		"serve.placement_get_p50_ms":  median(rd.placement),
		"serve.ack_p99_ms":            percentile(plainLat, 0.99),
		"serve.queue_depth_max":       float64(rd.depthMax),
		"serve.server_cpu_us_per_req": median(cpuPerReq) * 1e6,
		"serve.sat_shed_frac":         float64(closed.shed) / float64(closed.sent),
		"serve.sojourn_p50_ms":        std.P50Millis,
		"serve.sojourn_p99_ms":        std.P99Millis,
		"serve.rounds":                float64(snap.Rounds),
		"serve.checkpoints_ok":        float64(snap.CheckpointsOK),
		"serve.replay_s":              replayS,
		"gen.late_max_ms":             lateMax,
		"gen.late_p99_ms":             lateP99,
		"gen.cpu_s":                   genCPU.Seconds(),
		"trace.overhead_ms":           median(tracedLat) - median(plainLat),
	}
	if err := durabilityProbes(cfg, dir, replayS, vals); err != nil {
		return err
	}
	r.setMetrics(perLayer, vals)
	r.HostScale, r.CPUScale = median(r.Calib)/calibRef, median(r.CalibCPU)/calibCPURef
	r.spans = tr.spans
	return nil
}

// durabilityProbes times the durability layer's public calls over the
// run's own WAL entries and checkpoint: appends to a fresh log with the
// same segment size, one sync, checkpoint writes, and queue admission.
func durabilityProbes(cfg config, dir string, replayS float64, vals map[string]float64) error {
	data, err := os.ReadFile(filepath.Join(dir, serve.CheckpointName))
	if err != nil {
		return err
	}
	var ck serve.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return err
	}
	wal, _, entries, err := serve.OpenLog(dir, ck.Fingerprint, 0)
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("the run's WAL retained no entries")
	}
	vals["serve.replay_us_per_entry"] = replayS / float64(len(entries)) * 1e6

	probe := filepath.Join(cfg.tmp, "probe")
	if err := os.RemoveAll(probe); err != nil {
		return err
	}
	if err := os.MkdirAll(probe, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(probe)
	plog, err := serve.CreateLog(probe, ck.Fingerprint, 4096)
	if err != nil {
		return err
	}
	appends := make([]float64, 0, len(entries))
	for _, e := range entries {
		start := time.Now()
		if err := plog.Append(e); err != nil {
			plog.Close()
			return err
		}
		appends = append(appends, float64(time.Since(start))/1e3)
	}
	start := time.Now()
	if err := plog.Sync(); err != nil {
		plog.Close()
		return err
	}
	vals["serve.wal_sync_ms"] = float64(time.Since(start)) / 1e6
	if err := plog.Close(); err != nil {
		return err
	}
	vals["serve.wal_append_p50_us"] = median(appends)
	vals["serve.wal_append_p99_us"] = percentile(appends, 0.99)

	var ckpts []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := serve.WriteCheckpoint(filepath.Join(probe, serve.CheckpointName), &ck); err != nil {
			return err
		}
		ckpts = append(ckpts, float64(time.Since(start))/1e6)
	}
	vals["serve.checkpoint_ms"] = median(ckpts)

	q := serve.NewIngestQueue(0, 0)
	n := 0
	start = time.Now()
	for _, e := range entries {
		if e.Tick {
			continue
		}
		if err := q.Admit(e.Request(), time.Now(), nil); err != nil {
			return err
		}
		q.Pop()
		n++
	}
	if n > 0 {
		vals["serve.admit_us"] = float64(time.Since(start)) / 1e3 / float64(n)
	}
	return nil
}

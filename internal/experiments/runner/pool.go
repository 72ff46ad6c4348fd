package runner

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The pool's failure-handling constants.
const (
	// cellRetries is how many times a cell is re-attempted after its first
	// failure before the run is declared failed. A worker crash costs the
	// in-flight cell one attempt; only a cell that keeps failing across
	// fresh workers — a deterministic failure — exhausts the budget.
	cellRetries = 2
	// rejoinGrace is how long a run waits at zero membership (after at
	// least one worker had joined) for a worker to come back before
	// failing.
	rejoinGrace = 10 * time.Second
	// drainTimeout bounds how long a drain waits for in-flight cells
	// before abandoning them.
	drainTimeout = 30 * time.Second
)

// ErrDrained reports a run stopped by Drain: no new cells were fed after
// the drain signal, in-flight results were collected under the drain
// deadline, and the grids returned by RunAll hold every completed
// cell — convert them with Grid.Partial and persist, so a SIGTERM mid-run
// loses no completed work.
var ErrDrained = errors.New("runner: run drained")

// Config tunes the pool. The zero value selects the production defaults.
type Config struct {
	// Deadline, when positive, bounds how long every cell may stay
	// unanswered before its worker is treated as wedged and recycled; 0
	// derives the deadline from observed cell times (see deadlineTracker).
	Deadline time.Duration

	// Test hooks, zero in production: retries, rejoinGrace and
	// drainTimeout override cellRetries, rejoinGrace and drainTimeout,
	// backoff the respawn schedule, a recording sleep pins the schedule
	// without real delays, and a fixed uniform pins the jitter.
	retries      int
	rejoinGrace  time.Duration
	drainTimeout time.Duration
	backoff      backoffConfig
	sleep        func(d time.Duration, cancel <-chan struct{})
	uniform      func() float64
}

func (c Config) withDefaults() Config {
	c.retries = cmp.Or(c.retries, cellRetries)
	c.rejoinGrace = cmp.Or(c.rejoinGrace, rejoinGrace)
	c.drainTimeout = cmp.Or(c.drainTimeout, drainTimeout)
	if c.sleep == nil {
		c.sleep = sleepFor
	}
	return c
}

// sleepFor sleeps d unless cancel fires first.
func sleepFor(d time.Duration, cancel <-chan struct{}) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
}

// Pool is a fault-tolerant worker pool shared across specs, generic over
// its Transport: the same coordinator drives worker subprocesses over
// stdin/stdout pipes (PipeTransport, the -procs backend) or remote workers
// over TCP (ListenTransport, the -serve-workers backend). Every connection,
// however it arrives, goes through one lifecycle (serve), so requeue and
// retry logic and the output are identical across transports.
//
// A Pool is created once for a whole selection: the same workers serve cells
// from successive specs (the coordinator announces spec switches with a
// "SPEC <name> <options>" protocol line), so workers stay busy across figure
// boundaries instead of idling while one figure's tail cells finish and the
// next figure's pool boots.
//
// The pool is also where failure is contained:
//
//   - A worker that dies or answers out of protocol is retired (killed and
//     reaped for subprocesses) and its in-flight cell requeued; pipe slots
//     re-dial with exponential backoff and jitter.
//   - A wedged-but-alive worker — no crash, no response — is converted
//     into the same retire/requeue path by the per-cell response deadline
//     (adaptive over observed cell wall-clock; see deadlineTracker).
//   - A TCP worker that stops heartbeating is retired (dead-peer detection
//     in tcpConn), while a slow cell under its deadline is left alone:
//     heartbeats distinguish slow from dead.
//   - Membership is elastic: TCP workers join mid-run and are fed from the
//     shared queue; workers may leave without failing the run as long as
//     one remains (or one joins within rejoinGrace), and when none do the
//     error names the last worker failure.
//   - The grid only fails once a single cell has failed cellRetries+1
//     times — a deterministic failure — and the error names that cell. A
//     cell-level error reported by a healthy worker is retried on the same
//     budget without recycling the worker. A worker that refuses the
//     session (a Fatal line: another build's spec or grid) fails the run
//     at once, naming the cell and the worker's reason.
//   - Drain stops feeding new cells and collects in-flight results under a
//     deadline, so a terminating coordinator can persist every completed
//     cell as a resumable partial.
type Pool struct {
	tr    Transport
	cfg   Config
	track *deadlineTracker

	taskCh chan poolTask
	stopCh chan struct{}
	wg     sync.WaitGroup

	drainOnce sync.Once
	drainCh   chan struct{}

	live       atomic.Int64
	everJoined atomic.Bool
	lastErrMu  sync.Mutex
	lastErr    error

	mu     sync.Mutex // serialises RunAll; a Pool runs one selection at a time
	closed bool
}

// cellTry is one attempt at one cell: the spec's position in the run, the
// cell index, and how many attempts came before.
type cellTry struct{ specIdx, idx, attempt int }

// poolTask is one cell assignment handed to a worker connection.
type poolTask struct {
	cellTry
	spec *Spec
	done chan<- poolDone
}

// poolDone reports one attempt's outcome back to the coordinator.
type poolDone struct {
	cellTry
	values []float64
	nanos  int64
	err    error
	fatal  bool // the worker refused the session: fail the run now
}

// NewPool starts a pool over a transport: PipeTransport for worker
// subprocesses, ListenTransport for remote TCP workers. Close the pool to
// shut its workers down.
func NewPool(tr Transport, cfg Config) *Pool {
	p := &Pool{
		tr:      tr,
		cfg:     cfg.withDefaults(),
		taskCh:  make(chan poolTask),
		stopCh:  make(chan struct{}),
		drainCh: make(chan struct{}),
	}
	p.track = newDeadlineTracker(p.cfg.Deadline)
	tr.feed(p)
	return p
}

// start runs f on a goroutine Close waits for.
func (p *Pool) start(f func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		f()
	}()
}

// Close shuts the pool down: worker connections are closed via the orderly
// path (stdin EOF for subprocesses, BYE for TCP workers) and the transport
// released. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.taskCh)
	close(p.stopCh)
	p.tr.Close()
	p.wg.Wait()
}

// Drain asks the pool to stop feeding new cells: the active RunAll
// collects in-flight results under the drain timeout and returns ErrDrained
// with the partial grids. Drain is sticky — a drained pool starts no
// further runs — and idempotent, the shape a SIGTERM handler needs.
func (p *Pool) Drain() {
	p.drainOnce.Do(func() { close(p.drainCh) })
}

// LiveWorkers reports how many connections are in the lifecycle: every
// connected TCP worker, and every pipe slot not backing off (its process
// may not have started yet).
func (p *Pool) LiveWorkers() int { return int(p.live.Load()) }

// noteLeave records a departed connection and, when it failed, the reason —
// the "last failure" a zero-membership error names.
func (p *Pool) noteLeave(err error) {
	p.live.Add(-1)
	if err != nil {
		p.lastErrMu.Lock()
		p.lastErr = err
		p.lastErrMu.Unlock()
	}
}

func (p *Pool) lastFailure() error {
	p.lastErrMu.Lock()
	defer p.lastErrMu.Unlock()
	return p.lastErr
}

// Run implements Exec for a single spec.
func (p *Pool) Run(s *Spec) (*Grid, error) {
	grids, err := p.RunAll([]*Spec{s}, nil, nil)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// RunAll evaluates every spec's grid on the shared pool, pipelining cells
// across spec boundaries: as soon as one spec's queue drains, workers pull
// cells of the next spec while the previous spec's tail cells are still in
// flight. cells, when non-nil, holds one entry per spec: nil evaluates the
// spec's whole grid, a list only those cell indices (the sharded and
// resume paths; the grid is then incomplete by design — persist it with
// Grid.Partial). emit is called once per spec, in spec order, as each grid
// completes (it may be nil). On ErrDrained the returned grids hold every
// cell completed before the drain; on other errors they are partial and
// best ignored. On failure the already-dispatched cells are drained before
// returning, so the pool stays usable for another RunAll.
func (p *Pool) RunAll(specs []*Spec, cells [][]int, emit func(i int, g *Grid) error) ([]*Grid, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("runner: RunAll on a closed pool")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("runner: RunAll without specs")
	}
	if cells == nil {
		cells = make([][]int, len(specs))
	} else if len(cells) != len(specs) {
		return nil, fmt.Errorf("runner: RunAll with %d cell lists for %d specs", len(cells), len(specs))
	}
	grids := make([]*Grid, len(specs))
	remaining := make([]int, len(specs))
	var pending []cellTry
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(s.Name, " \t\r\n") || strings.ContainsAny(s.Options, "\r\n") {
			return nil, fmt.Errorf("runner: spec %q with options %q cannot cross the worker protocol", s.Name, s.Options)
		}
		idxs, err := cellList(s, cells[i])
		if err != nil {
			return nil, err
		}
		grids[i] = NewGrid(s)
		remaining[i] = len(idxs)
		for _, c := range idxs {
			pending = append(pending, cellTry{i, c, 0})
		}
	}
	// Capacity covers every possible attempt, so a worker finishing an
	// abandoned cell after a drain can always deposit its result without
	// blocking.
	done := make(chan poolDone, len(pending)*(p.cfg.retries+1))
	next := 0     // head of the pending queue (requeues are appended)
	inflight := 0 // tasks handed to workers and not yet answered
	emitted := 0  // specs whose grids have been emitted, in order
	var failure error

	draining := false
	abandoned := false // drain deadline fired with cells still in flight
	drainCh := p.drainCh
	var drainTimer *time.Timer
	var drainExpired <-chan time.Time
	startDrain := func() {
		draining = true
		drainCh = nil
		drainTimer = time.NewTimer(p.cfg.drainTimeout)
		drainExpired = drainTimer.C
	}
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()

	// Zero-membership detection: when every worker has left (after at
	// least one had joined) and work remains, the run fails after
	// rejoinGrace naming the last failure — instead of hanging forever on
	// a queue nobody serves.
	memTick := time.NewTicker(50 * time.Millisecond)
	defer memTick.Stop()
	var zeroSince time.Time

	maybeEmit := func() {
		for failure == nil && emitted < len(specs) && remaining[emitted] == 0 {
			if emit != nil {
				if err := emit(emitted, grids[emitted]); err != nil {
					failure = err
					return
				}
			}
			emitted++
		}
	}
	maybeEmit() // specs with an empty cell list are complete already

	for {
		if abandoned || (inflight == 0 && (failure != nil || draining || next >= len(pending))) {
			break
		}
		// Offer the next pending task and listen for completions at once;
		// with no pending task (or a doomed or draining run) the nil
		// channel leaves only the drain cases.
		var sendCh chan poolTask
		var t poolTask
		if failure == nil && !draining && next < len(pending) {
			q := pending[next]
			sendCh = p.taskCh
			t = poolTask{cellTry: q, spec: specs[q.specIdx], done: done}
		}
		select {
		case sendCh <- t:
			next++
			inflight++
		case d := <-done:
			inflight--
			if failure != nil {
				continue // draining a doomed run; drop the result
			}
			if d.err != nil {
				if draining {
					continue // not feeding; the cell stays unevaluated
				}
				if d.fatal || d.attempt >= p.cfg.retries {
					failure = fmt.Errorf("runner: spec %s cell %d failed after %d attempts: %w",
						specs[d.specIdx].Name, d.idx, d.attempt+1, d.err)
					continue
				}
				pending = append(pending, cellTry{d.specIdx, d.idx, d.attempt + 1})
				continue
			}
			if err := grids[d.specIdx].SetTimed(d.idx, d.values, d.nanos); err != nil {
				failure = err
				continue
			}
			remaining[d.specIdx]--
			maybeEmit()
		case <-drainCh:
			startDrain()
		case <-drainExpired:
			abandoned = true
		case <-memTick.C:
			if failure == nil && !draining && p.everJoined.Load() && p.live.Load() == 0 &&
				(next < len(pending) || inflight > 0) {
				if zeroSince.IsZero() {
					zeroSince = time.Now() //repcheck:allow-wallclock rejoin grace is a real-time liveness window
				} else if time.Since(zeroSince) >= p.cfg.rejoinGrace { //repcheck:allow-wallclock rejoin grace is a real-time liveness window
					last := p.lastFailure()
					if last == nil {
						last = errors.New("workers disconnected without reporting a failure")
					}
					failure = fmt.Errorf("runner: all workers left the pool with %d cells outstanding; last worker failure: %w",
						len(pending)-next+inflight, last)
				}
			} else {
				zeroSince = time.Time{}
			}
		}
	}
	if failure != nil {
		return grids, failure
	}
	if draining || abandoned {
		for _, r := range remaining {
			if r != 0 {
				return grids, ErrDrained
			}
		}
	}
	return grids, nil
}

// slotLoop is a pool-driven connection source (a PipeTransport slot): it
// dials a connection, hands it to the lifecycle, and re-dials after an
// exponential-backoff penalty once it fails — so a crash-looping worker
// binary cannot spin the coordinator. The streak resets once a connection
// has served a cell: a binary that did real work before dying is not a
// crash loop.
func (p *Pool) slotLoop(dial func() Conn) {
	bo := newBackoff(p.cfg.backoff, p.cfg.uniform)
	for {
		served, closed := p.serve(dial())
		if closed {
			return
		}
		if served {
			bo.Reset()
		}
		p.cfg.sleep(bo.Next(), p.stopCh)
	}
}

// joinLoop is a worker-driven connection source (ListenTransport): every
// connection a worker establishes gets its own lifecycle, fed from the
// shared task queue. There is no re-dial here: a remote worker that wants
// back in dials again with its own backoff.
func (p *Pool) joinLoop(joined <-chan Conn) {
	for {
		select {
		case c, ok := <-joined:
			if !ok {
				return
			}
			p.start(func() { p.serve(c) })
		case <-p.stopCh:
			return
		}
	}
}

// serve is the one connection lifecycle: the connection joins the
// membership, serves tasks from the shared queue until the pool closes
// (then it is shut down the orderly way) or it fails (then it is retired,
// its in-flight cell already requeued, and the failure recorded for the
// zero-membership error), and leaves. It reports whether the connection
// completed a cell and whether it ended because the pool closed.
func (p *Pool) serve(c Conn) (served, closed bool) {
	lc := newLiveConn(c)
	p.live.Add(1)
	p.everJoined.Store(true)
	closed, err := p.serveConn(lc)
	p.noteLeave(err)
	if closed {
		lc.shutdown()
	} else {
		lc.retire()
	}
	return lc.served > 0, closed
}

// serveConn serves tasks on one connection until the pool closes (closed
// == true) or the connection fails (closed == false, with the reason).
func (p *Pool) serveConn(lc *liveConn) (closed bool, reason error) {
	spec := "" // the last SPEC line sent
	for {
		select {
		case t, ok := <-p.taskCh:
			if !ok {
				return true, nil
			}
			switch st, err := p.runTask(lc, &spec, t); st {
			case taskConnDead:
				return false, err
			case taskPoolStopped:
				return true, nil
			}
		case r := <-lc.respCh:
			// A line with no cell in flight: a heartbeat is expected,
			// anything else means the peer is gone or off-protocol.
			if r.err != nil {
				return false, r.err
			}
			if r.msg.Hb {
				continue
			}
			return false, fmt.Errorf("runner: %s: unexpected response %q on an idle connection", lc.conn.Name(), r.raw)
		case <-p.stopCh:
			return true, nil
		}
	}
}

// taskStatus is one runTask outcome.
type taskStatus int

const (
	taskServed      taskStatus = iota // result or cell error reported; connection healthy
	taskConnDead                      // connection must be retired; task failure reported
	taskPoolStopped                   // pool is closing; task failure reported
)

// runTask runs one cell on the connection: announce the spec if it
// changed, send the index, wait for the response under the per-cell
// deadline. Every path reports the task's outcome to the coordinator
// before returning.
func (p *Pool) runTask(lc *liveConn, spec *string, t poolTask) (taskStatus, error) {
	fail := func(err error) { t.done <- poolDone{cellTry: t.cellTry, err: err} }
	dead := func(err error) (taskStatus, error) {
		fail(err)
		return taskConnDead, err
	}
	if line := strings.TrimSpace("SPEC " + t.spec.Name + " " + t.spec.Options); *spec != line {
		if err := lc.conn.WriteLine(line); err != nil {
			return dead(err)
		}
		*spec = line
	}
	if err := lc.conn.WriteLine(strconv.Itoa(t.idx)); err != nil {
		return dead(err)
	}
	deadline := p.track.Current()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	start := time.Now() //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
	for {
		select {
		case r := <-lc.respCh:
			if r.err != nil {
				return dead(fmt.Errorf("runner: worker died on cell %d: %w", t.idx, r.err))
			}
			if r.msg.Hb {
				continue // heartbeats may interleave with a slow cell
			}
			msg := r.msg
			if msg.Fatal != "" {
				err := fmt.Errorf("runner: %s ended the session: %s", lc.conn.Name(), msg.Fatal)
				t.done <- poolDone{cellTry: t.cellTry, err: err, fatal: true}
				return taskConnDead, err
			}
			if msg.Idx != t.idx {
				return dead(fmt.Errorf("runner: %s answered cell %d for cell %d", lc.conn.Name(), msg.Idx, t.idx))
			}
			if msg.Err != "" {
				// The worker is healthy; the cell itself failed. Keep the
				// connection, surface the error for the retry budget.
				fail(fmt.Errorf("%s", msg.Err))
				return taskServed, nil
			}
			if err := t.spec.checkValues(t.idx, msg.Values); err != nil {
				return dead(fmt.Errorf("runner: %s: %w", lc.conn.Name(), err))
			}
			p.track.Observe(time.Since(start)) //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
			lc.served++
			t.done <- poolDone{cellTry: t.cellTry, values: msg.Values, nanos: msg.Nanos}
			return taskServed, nil
		case <-timer.C:
			return dead(fmt.Errorf("runner: %s: no response for spec %s cell %d within the %v deadline (wedged worker?)",
				lc.conn.Name(), t.spec.Name, t.idx, deadline.Round(time.Millisecond)))
		case <-p.stopCh:
			fail(fmt.Errorf("runner: pool closed with cell %d in flight", t.idx))
			return taskPoolStopped, nil
		}
	}
}

// connResp is one parsed worker line (or the transport error that ended
// the stream).
type connResp struct {
	msg cellMsg
	raw string
	err error
}

// liveConn couples a Conn with the reader goroutine that turns its line
// stream into parsed responses — the shape that lets the serving goroutine
// select over responses, deadlines and pool shutdown at once.
type liveConn struct {
	conn     Conn
	respCh   chan connResp
	dead     chan struct{}
	deadOnce sync.Once
	served   int // cells completed; read by the slot's backoff after serve
}

func newLiveConn(c Conn) *liveConn {
	lc := &liveConn{conn: c, respCh: make(chan connResp, 4), dead: make(chan struct{})}
	go lc.readLoop()
	return lc
}

// readLoop reads worker lines until the connection errors or is retired. A
// malformed line ends the stream: the worker is speaking garbage and the
// connection will be retired, so there is nothing left to parse.
func (lc *liveConn) readLoop() {
	for {
		line, err := lc.conn.ReadLine()
		if err != nil {
			lc.deliver(connResp{err: err})
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var msg cellMsg
		if jerr := json.Unmarshal([]byte(line), &msg); jerr != nil {
			lc.deliver(connResp{raw: line, err: fmt.Errorf("bad worker response %q: %w", line, jerr)})
			return
		}
		if !lc.deliver(connResp{msg: msg, raw: line}) {
			return
		}
	}
}

// deliver hands one response to the serving goroutine, giving up once the
// connection has been retired (nobody is listening anymore).
func (lc *liveConn) deliver(r connResp) bool {
	select {
	case lc.respCh <- r:
		return true
	case <-lc.dead:
		return false
	}
}

// retire tears the connection down on the error path.
func (lc *liveConn) retire() {
	lc.deadOnce.Do(func() { close(lc.dead) })
	lc.conn.Abort()
}

// shutdown closes the connection on the orderly path.
func (lc *liveConn) shutdown() {
	lc.deadOnce.Do(func() { close(lc.dead) })
	lc.conn.Shutdown()
}

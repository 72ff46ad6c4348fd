package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCellRetries is how many times a cell is re-attempted after its
// first failure before the run is declared failed. A worker crash costs the
// in-flight cell one attempt; only a cell that keeps failing across fresh
// workers — a deterministic failure — exhausts the budget.
const DefaultCellRetries = 2

// ErrDrained reports a run stopped by Drain: no new cells were fed after
// the drain signal, in-flight results were collected under the drain
// deadline, and the grids returned by RunAll hold every completed
// cell — convert them with Grid.Partial and persist, so a SIGTERM mid-run
// loses no completed work.
var ErrDrained = errors.New("runner: run drained")

// Config tunes the pool's failure handling. The zero value selects the
// production defaults throughout.
type Config struct {
	// Retries is the per-cell re-attempt budget after the first failure;
	// 0 selects DefaultCellRetries, negative disables requeueing.
	Retries int
	// Deadline bounds how long one cell may stay unanswered before its
	// worker is treated as wedged and recycled.
	Deadline DeadlineConfig
	// Backoff paces worker respawns, replacing immediate respawn so a
	// crash-looping worker binary cannot spin the coordinator.
	Backoff BackoffConfig
	// HeartbeatTimeout retires an idle worker-driven connection that has
	// sent nothing (not even heartbeats) for this long — the dead-peer
	// detector for half-open TCP connections; 0 selects 15s. Pool-driven
	// (pipe) connections don't need it: a dead subprocess is visible as
	// pipe EOF immediately.
	HeartbeatTimeout time.Duration
	// RejoinGrace is how long a worker-driven pool holds a run at zero
	// membership (after at least one worker had joined) waiting for a
	// rejoin before failing it; 0 selects 10s.
	RejoinGrace time.Duration
	// DrainTimeout bounds how long a drain waits for in-flight cells
	// before abandoning them; 0 selects 30s.
	DrainTimeout time.Duration

	// sleep and uniform are test hooks: a recording sleeper pins the
	// respawn backoff schedule without real delays, a fixed uniform pins
	// the jitter.
	sleep   func(d time.Duration, cancel <-chan struct{})
	uniform func() float64
}

func (c Config) withDefaults() Config {
	switch {
	case c.Retries == 0:
		c.Retries = DefaultCellRetries
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	if c.RejoinGrace <= 0 {
		c.RejoinGrace = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
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
// over TCP (ListenTransport, the -serve-workers backend), with identical
// requeue/retry logic and byte-identical output.
//
// A Pool is created once for a whole selection: the same workers serve cells
// from successive specs (the coordinator announces spec switches with a
// "SPEC <name>" protocol line), so workers stay busy across figure
// boundaries instead of idling while one figure's tail cells finish and the
// next figure's pool boots.
//
// The pool is also where failure is contained:
//
//   - A worker that dies or answers out of protocol is retired (killed and
//     reaped for subprocesses) and its in-flight cell requeued; pipe slots
//     respawn with exponential backoff and jitter.
//   - A wedged-but-alive worker — no crash, no response — is converted
//     into the same retire/requeue path by the per-cell response deadline
//     (adaptive over observed cell wall-clock; see DeadlineConfig).
//   - An idle worker-driven connection that stops heartbeating is retired
//     (dead-peer detection), while a slow cell under its deadline is left
//     alone: heartbeats distinguish slow from dead.
//   - Worker-driven membership is elastic: workers join mid-run and are
//     fed from the shared queue; workers may leave without failing the run
//     as long as one remains (or rejoins within RejoinGrace), and when
//     none do the error names the last worker failure.
//   - The grid only fails once a single cell has failed Retries+1 times —
//     a deterministic failure — and the error names that cell. A
//     cell-level error reported by a healthy worker is retried on the same
//     budget without recycling the worker.
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

// poolTask is one cell assignment handed to a worker connection.
type poolTask struct {
	spec    *Spec
	specIdx int
	idx     int
	attempt int
	done    chan<- poolDone
}

// poolDone reports one attempt's outcome back to the coordinator.
type poolDone struct {
	specIdx int
	idx     int
	attempt int
	values  []float64
	nanos   int64
	err     error
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
	for i := 0; i < tr.Slots(); i++ {
		p.wg.Add(1)
		go p.slotLoop()
	}
	if joined := tr.Joined(); joined != nil {
		p.wg.Add(1)
		go p.joinLoop(joined)
	}
	return p
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
// collects in-flight results under DrainTimeout and returns ErrDrained
// with the partial grids. Drain is sticky — a drained pool starts no
// further runs — and idempotent, the shape a SIGTERM handler needs.
func (p *Pool) Drain() {
	p.drainOnce.Do(func() { close(p.drainCh) })
}

// LiveWorkers reports the currently connected worker count.
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
	if pt, ok := p.tr.(*PipeTransport); ok && pt.Command == nil {
		return nil, fmt.Errorf("runner: pool without a worker command")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("runner: RunAll without specs")
	}
	if cells == nil {
		cells = make([][]int, len(specs))
	} else if len(cells) != len(specs) {
		return nil, fmt.Errorf("runner: RunAll with %d cell lists for %d specs", len(cells), len(specs))
	}
	type queued struct{ specIdx, idx, attempt int }
	grids := make([]*Grid, len(specs))
	remaining := make([]int, len(specs))
	var pending []queued
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(s.Name, " \t\r\n") {
			return nil, fmt.Errorf("runner: spec name %q cannot cross the worker protocol", s.Name)
		}
		idxs, err := cellList(s, cells[i])
		if err != nil {
			return nil, err
		}
		grids[i] = NewGrid(s)
		remaining[i] = len(idxs)
		for _, c := range idxs {
			pending = append(pending, queued{i, c, 0})
		}
	}
	// Capacity covers every possible attempt, so a worker finishing an
	// abandoned cell after a drain can always deposit its result without
	// blocking.
	done := make(chan poolDone, len(pending)*(p.cfg.Retries+1))
	next := 0     // head of the pending queue (requeues are appended)
	inflight := 0 // tasks handed to workers and not yet answered
	emitted := 0  // specs whose grids have been emitted, in order
	var failure error

	draining := false
	abandoned := false // drain deadline fired with cells still in flight
	drainCh := p.drainCh
	var drainTimer *time.Timer
	var drainTimeout <-chan time.Time
	startDrain := func() {
		draining = true
		drainCh = nil
		drainTimer = time.NewTimer(p.cfg.DrainTimeout)
		drainTimeout = drainTimer.C
	}
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()

	// Zero-membership detection for worker-driven transports: when every
	// worker has left (after at least one had joined) and work remains,
	// the run fails after RejoinGrace names the last failure — instead of
	// hanging forever on a queue nobody serves.
	workerDriven := p.tr.Slots() == 0
	var memTickC <-chan time.Time
	if workerDriven {
		memTick := time.NewTicker(50 * time.Millisecond)
		defer memTick.Stop()
		memTickC = memTick.C
	}
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
			t = poolTask{spec: specs[q.specIdx], specIdx: q.specIdx, idx: q.idx, attempt: q.attempt, done: done}
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
				if d.attempt >= p.cfg.Retries {
					failure = fmt.Errorf("runner: spec %s cell %d failed after %d attempts: %w",
						specs[d.specIdx].Name, d.idx, d.attempt+1, d.err)
					continue
				}
				pending = append(pending, queued{d.specIdx, d.idx, d.attempt + 1})
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
		case <-drainTimeout:
			abandoned = true
		case <-memTickC:
			if failure == nil && !draining && p.everJoined.Load() && p.live.Load() == 0 &&
				(next < len(pending) || inflight > 0) {
				if zeroSince.IsZero() {
					zeroSince = time.Now() //repcheck:allow-wallclock rejoin grace is a real-time liveness window
				} else if time.Since(zeroSince) >= p.cfg.RejoinGrace { //repcheck:allow-wallclock rejoin grace is a real-time liveness window
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

// joinLoop serves worker-driven transports: every connection a worker
// establishes becomes a serving goroutine fed from the shared task queue —
// elastic membership, workers joining whenever they dial in.
func (p *Pool) joinLoop(joined <-chan Conn) {
	defer p.wg.Done()
	for {
		select {
		case c, ok := <-joined:
			if !ok {
				return
			}
			p.wg.Add(1)
			go p.connLoop(c)
		case <-p.stopCh:
			return
		}
	}
}

// connLoop serves one worker-driven connection until it fails or the pool
// closes. There is no respawn here: a remote worker that wants back in
// dials again (its own backoff), and the fresh connection gets a fresh
// connLoop.
func (p *Pool) connLoop(c Conn) {
	defer p.wg.Done()
	lc := newLiveConn(c)
	p.live.Add(1)
	p.everJoined.Store(true)
	orderly, err := p.serveConn(lc, nil, p.cfg.HeartbeatTimeout)
	if orderly {
		p.noteLeave(nil)
		lc.shutdown()
		return
	}
	p.noteLeave(err)
	lc.retire()
}

// slotLoop owns one pool-driven worker slot: it lazily connects (spawning
// a subprocess) when a task arrives, serves tasks until the connection
// fails, and reconnects for the next task after an exponential-backoff
// penalty — so a crash-looping worker binary cannot spin the coordinator.
// A spawn failure charges the waiting task one attempt, exactly like any
// other worker failure.
func (p *Pool) slotLoop() {
	defer p.wg.Done()
	bo := newBackoff(p.cfg.Backoff, p.cfg.uniform)
	for {
		var t poolTask
		select {
		case tt, ok := <-p.taskCh:
			if !ok {
				return
			}
			t = tt
		case <-p.stopCh:
			return
		}
		c, err := p.tr.Connect()
		if err != nil {
			t.done <- poolDone{t.specIdx, t.idx, t.attempt, nil, 0, fmt.Errorf("runner: spawning worker: %w", err)}
			p.cfg.sleep(bo.Next(), p.stopCh)
			continue
		}
		lc := newLiveConn(c)
		p.live.Add(1)
		p.everJoined.Store(true)
		orderly, serveErr := p.serveConn(lc, &t, 0)
		if orderly {
			p.noteLeave(nil)
			lc.shutdown()
			return
		}
		p.noteLeave(serveErr)
		lc.retire()
		if lc.served.Load() > 0 {
			// The binary did real work before dying: not a crash loop.
			bo.Reset()
		}
		p.cfg.sleep(bo.Next(), p.stopCh)
	}
}

// serveConn serves tasks on one connection until the pool closes (orderly
// == true; the caller shuts the connection down) or the connection fails
// (orderly == false with the reason; the caller retires it). first, if
// non-nil, is a task already pulled by the caller. idleTimeout, when
// positive, retires the connection if nothing — not even a heartbeat —
// arrives for that long while no cell is in flight.
func (p *Pool) serveConn(lc *liveConn, first *poolTask, idleTimeout time.Duration) (orderly bool, reason error) {
	spec := "" // name announced with the last SPEC line
	if first != nil {
		switch st, err := p.runTask(lc, &spec, *first); st {
		case taskConnDead:
			return false, err
		case taskPoolStopped:
			return true, nil
		}
	}
	var idleTickC <-chan time.Time
	if idleTimeout > 0 {
		interval := idleTimeout / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		idleTick := time.NewTicker(interval)
		defer idleTick.Stop()
		idleTickC = idleTick.C
	}
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
		case <-idleTickC:
			if idle := time.Since(time.Unix(0, lc.lastRecv.Load())); idle > idleTimeout { //repcheck:allow-wallclock dead-peer detection is a real-time concern
				return false, fmt.Errorf("runner: %s: silent for %v on an idle connection (dead peer?)",
					lc.conn.Name(), idle.Round(time.Millisecond))
			}
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
	fail := func(err error) {
		t.done <- poolDone{t.specIdx, t.idx, t.attempt, nil, 0, err}
	}
	if *spec != t.spec.Name {
		if err := lc.conn.WriteLine("SPEC " + t.spec.Name); err != nil {
			fail(err)
			return taskConnDead, err
		}
		*spec = t.spec.Name
	}
	if err := lc.conn.WriteLine(strconv.Itoa(t.idx)); err != nil {
		fail(err)
		return taskConnDead, err
	}
	deadline := p.track.Current()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	start := time.Now() //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
	for {
		select {
		case r := <-lc.respCh:
			if r.err != nil {
				err := fmt.Errorf("runner: worker died on cell %d: %w", t.idx, r.err)
				fail(err)
				return taskConnDead, err
			}
			if r.msg.Hb {
				continue // heartbeats may interleave with a slow cell
			}
			msg := r.msg
			if msg.Idx != t.idx {
				err := fmt.Errorf("runner: %s answered cell %d for cell %d", lc.conn.Name(), msg.Idx, t.idx)
				fail(err)
				return taskConnDead, err
			}
			if msg.Err != "" {
				// The worker is healthy; the cell itself failed. Keep the
				// connection, surface the error for the retry budget.
				fail(fmt.Errorf("%s", msg.Err))
				return taskServed, nil
			}
			if msg.Values == nil {
				err := fmt.Errorf("runner: empty worker result for cell %d", t.idx)
				fail(err)
				return taskConnDead, err
			}
			p.track.Observe(time.Since(start)) //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
			lc.served.Add(1)
			t.done <- poolDone{t.specIdx, t.idx, t.attempt, msg.Values, msg.Nanos, nil}
			return taskServed, nil
		case <-timer.C:
			err := fmt.Errorf("runner: %s: no response for spec %s cell %d within the %v deadline (wedged worker?)",
				lc.conn.Name(), t.spec.Name, t.idx, deadline.Round(time.Millisecond))
			fail(err)
			return taskConnDead, err
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
// select over responses, deadlines, heartbeat staleness, and pool shutdown
// at once.
type liveConn struct {
	conn     Conn
	respCh   chan connResp
	dead     chan struct{}
	deadOnce sync.Once
	lastRecv atomic.Int64 // unix nanos of the last received line
	served   atomic.Int64 // successfully served cells (backoff reset signal)
}

func newLiveConn(c Conn) *liveConn {
	lc := &liveConn{conn: c, respCh: make(chan connResp, 4), dead: make(chan struct{})}
	lc.lastRecv.Store(time.Now().UnixNano()) //repcheck:allow-wallclock liveness timestamp for dead-peer detection
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
		lc.lastRecv.Store(time.Now().UnixNano()) //repcheck:allow-wallclock liveness timestamp for dead-peer detection
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

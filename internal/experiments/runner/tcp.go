package runner

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ListenTransport is the networked worker transport: the coordinator
// listens, remote workers (`figures -worker -connect addr`) dial in, and
// each accepted connection becomes a pool worker speaking the same
// SPEC/cell line protocol as the subprocess pipes. Membership is elastic —
// workers may join mid-run and are fed from the shared queue, and workers
// may leave without failing the run as long as at least one remains.
type ListenTransport struct {
	ln      net.Listener
	silence time.Duration // dead-peer limit handed to every accepted conn
	joined  chan Conn
	stop    chan struct{}
	wg      sync.WaitGroup

	closeOnce sync.Once
}

// The networked transport's liveness constants.
const (
	// heartbeatTimeout retires a connection that has sent nothing, not
	// even a heartbeat, for this long: the dead-peer detector for
	// half-open TCP connections.
	heartbeatTimeout = 15 * time.Second
	// workerHeartbeat is the interval at which a remote worker sends
	// heartbeats, well inside heartbeatTimeout.
	workerHeartbeat = 2 * time.Second
	// workerMaxAttempts is how many failed connection attempts and broken
	// sessions, in all, a remote worker tolerates before giving up.
	workerMaxAttempts = 8
)

// Listen starts the coordinator half of the TCP transport on addr (for
// example ":9131", or "127.0.0.1:0" to pick a free port — see Addr).
func Listen(addr string) (*ListenTransport, error) {
	return listen(addr, heartbeatTimeout)
}

// listen is Listen with the dead-peer limit as a parameter (tests shorten it).
func listen(addr string, silence time.Duration) (*ListenTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runner: listen %s: %w", addr, err)
	}
	t := &ListenTransport{ln: ln, silence: silence, joined: make(chan Conn), stop: make(chan struct{})}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr is the bound listen address, for workers to -connect to.
func (t *ListenTransport) Addr() string { return t.ln.Addr().String() }

func (t *ListenTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			close(t.joined)
			return
		}
		conn := &tcpConn{c: c, rd: bufio.NewReader(c), silence: t.silence}
		select {
		case t.joined <- conn:
		case <-t.stop:
			c.Close()
			close(t.joined)
			return
		}
	}
}

func (t *ListenTransport) feed(p *Pool) {
	p.start(func() { p.joinLoop(t.joined) })
}

// Close implements Transport: the listener stops accepting; connections
// already handed to the pool are closed by the pool.
func (t *ListenTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.stop)
		err = t.ln.Close()
		t.wg.Wait()
	})
	return err
}

// tcpConn adapts one accepted socket to the Conn interface.
type tcpConn struct {
	c       net.Conn
	rd      *bufio.Reader
	silence time.Duration
	once    sync.Once
}

func (c *tcpConn) WriteLine(line string) error {
	if _, err := fmt.Fprintf(c.c, "%s\n", line); err != nil {
		return fmt.Errorf("runner: worker write: %w", err)
	}
	return nil
}

// ReadLine fails once the peer has been silent for the connection's
// heartbeatTimeout: a remote worker heartbeats throughout a session, idle
// or busy, so only a dead peer or a half-open connection goes quiet that
// long. A slow cell is left to the per-cell response deadline.
func (c *tcpConn) ReadLine() (string, error) {
	c.c.SetReadDeadline(time.Now().Add(c.silence)) //repcheck:allow-wallclock dead-peer detection is a real-time concern
	line, err := c.rd.ReadString('\n')
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		return "", fmt.Errorf("runner: %s: silent for %v (dead peer?)", c.Name(), c.silence)
	}
	return line, err
}

// Abort implements the error-path close: the socket is dropped without BYE,
// so a healthy remote worker treats the session as interrupted and
// reconnects with backoff — the networked analogue of kill-and-respawn.
func (c *tcpConn) Abort() {
	c.once.Do(func() { c.c.Close() })
}

// Shutdown implements the orderly close: a best-effort BYE tells the worker
// the session is over (exit, don't reconnect), then the socket closes.
func (c *tcpConn) Shutdown() error {
	var err error
	c.once.Do(func() {
		c.c.SetWriteDeadline(time.Now().Add(2 * time.Second)) //repcheck:allow-wallclock socket write deadline on shutdown
		fmt.Fprintf(c.c, "%s\n", protoBye)
		err = c.c.Close()
	})
	return err
}

func (c *tcpConn) Name() string {
	return "worker " + c.c.RemoteAddr().String()
}

// WorkerOptions tunes the remote-worker loop (`figures -worker -connect`).
type WorkerOptions struct {
	// Fault optionally injects one failure mode into the first session
	// (`figures -faultinject` on the worker side).
	Fault *Fault
	// Logf reports connection lifecycle; nil discards.
	Logf func(format string, args ...any)

	// Test hooks, zero in production: heartbeat, backoff, maxAttempts and
	// sleep override workerHeartbeat, the reconnect schedule,
	// workerMaxAttempts and time.Sleep between attempts.
	heartbeat   time.Duration
	backoff     backoffConfig
	maxAttempts int
	sleep       func(time.Duration)
}

// ConnectWorker dials the coordinator at addr and serves the pool protocol
// over the connection — the remote half of `figures -serve-workers`. The
// worker reconnects with exponential backoff and jitter when the
// coordinator is not up yet or the connection breaks mid-run (elastic
// membership: a rejoin is just a fresh connection fed from the shared
// queue). It returns nil once the coordinator ends a session with BYE, and
// an error after workerMaxAttempts failures in a row. A bare EOF without
// BYE is ambiguous — a crashed coordinator or a network drop — and is
// treated as retryable. A session that served a cell ends the failure
// streak, as a pool slot's does: both the count and the backoff restart.
// build makes each spec under the coordinator's options, as in ServePool.
func ConnectWorker(addr string, build func(name, options string) (*Spec, error), opts WorkerOptions) error {
	hb := cmp.Or(opts.heartbeat, workerHeartbeat)
	maxAttempts := cmp.Or(opts.maxAttempts, workerMaxAttempts)
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sleep := opts.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	bo := newBackoff(opts.backoff, nil)
	fails := 0
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			logf("connected to coordinator %s", addr)
			var served int
			served, err = servePool(build, c, c, ServeOptions{Fault: opts.Fault, heartbeat: hb})
			c.Close()
			if errors.Is(err, ErrBye) {
				logf("coordinator ended the session")
				return nil
			}
			if err == nil {
				err = fmt.Errorf("session ended without BYE")
			}
			if served > 0 {
				fails = 0
				bo.Reset()
			}
		}
		fails++
		if fails >= maxAttempts {
			return fmt.Errorf("runner: giving up on coordinator %s after %d attempts: %w", addr, fails, err)
		}
		d := bo.Next()
		logf("session with %s: %v; retrying in %v", addr, err, d.Round(time.Millisecond))
		sleep(d)
	}
}

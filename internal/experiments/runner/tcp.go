package runner

import (
	"bufio"
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
	ln     net.Listener
	joined chan Conn
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// Listen starts the coordinator half of the TCP transport on addr (for
// example ":9131", or "127.0.0.1:0" to pick a free port — see Addr).
func Listen(addr string) (*ListenTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runner: listen %s: %w", addr, err)
	}
	t := &ListenTransport{ln: ln, joined: make(chan Conn), stop: make(chan struct{})}
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
		conn := &tcpConn{c: c, rd: bufio.NewReader(c)}
		select {
		case t.joined <- conn:
		case <-t.stop:
			c.Close()
			close(t.joined)
			return
		}
	}
}

// Slots implements Transport: membership is worker-driven.
func (t *ListenTransport) Slots() int { return 0 }

// Connect implements Transport; never used on a worker-driven transport.
func (t *ListenTransport) Connect() (Conn, error) {
	return nil, fmt.Errorf("runner: listen transport cannot initiate connections")
}

// Joined implements Transport.
func (t *ListenTransport) Joined() <-chan Conn { return t.joined }

// Close implements Transport: the listener stops accepting; connections
// already handed to the pool are closed by the pool.
func (t *ListenTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// tcpConn adapts one accepted socket to the Conn interface.
type tcpConn struct {
	c    net.Conn
	rd   *bufio.Reader
	once sync.Once
}

func (c *tcpConn) WriteLine(line string) error {
	if _, err := fmt.Fprintf(c.c, "%s\n", line); err != nil {
		return fmt.Errorf("runner: worker write: %w", err)
	}
	return nil
}

func (c *tcpConn) ReadLine() (string, error) {
	return c.rd.ReadString('\n')
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
	// Heartbeat is the idle-connection heartbeat interval; 0 selects 2s,
	// negative disables heartbeats.
	Heartbeat time.Duration
	// Backoff paces reconnect attempts.
	Backoff BackoffConfig
	// MaxAttempts is how many consecutive failed connection attempts or
	// broken sessions the worker tolerates before giving up; 0 selects 8.
	MaxAttempts int
	// Fault optionally injects one failure mode into the first session
	// (`figures -faultinject` on the worker side).
	Fault *Fault
	// Logf reports connection lifecycle; nil discards.
	Logf func(format string, args ...any)
}

// ConnectWorker dials the coordinator at addr and serves the pool protocol
// over the connection — the remote half of `figures -serve-workers`. The
// worker reconnects with exponential backoff and jitter when the
// coordinator is not up yet or the connection breaks mid-run (elastic
// membership: a rejoin is just a fresh connection fed from the shared
// queue). It returns nil once the coordinator ends a session with BYE, and
// an error after MaxAttempts consecutive failures. A bare EOF without BYE
// is ambiguous — a crashed coordinator or a network drop — and is treated
// as retryable.
func ConnectWorker(addr string, build func(name string) (*Spec, error), opts WorkerOptions) error {
	hb := opts.Heartbeat
	if hb == 0 {
		hb = 2 * time.Second
	} else if hb < 0 {
		hb = 0
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bo := newBackoff(opts.Backoff, nil)
	fails := 0
	var lastErr error
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			logf("connected to coordinator %s", addr)
			err = ServePool(build, c, c, ServeOptions{Heartbeat: hb, Fault: opts.Fault})
			c.Close()
			if errors.Is(err, ErrBye) {
				logf("coordinator ended the session")
				return nil
			}
			if err == nil {
				err = fmt.Errorf("session ended without BYE")
			}
		}
		fails++
		lastErr = err
		if fails >= maxAttempts {
			return fmt.Errorf("runner: giving up on coordinator %s after %d attempts: %w", addr, fails, lastErr)
		}
		d := bo.Next()
		logf("session with %s: %v; retrying in %v", addr, err, d.Round(time.Millisecond))
		time.Sleep(d)
	}
}

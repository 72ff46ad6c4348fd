package runner

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
)

// Conn is one live worker connection speaking the line-oriented SPEC/cell
// protocol: the coordinator writes assignment lines ("SPEC <name>
// <options>", a decimal cell index, or "BYE"), the worker answers with one
// JSON cellMsg line per cell plus optional heartbeat lines. A Conn is driven by exactly
// one pool goroutine at a time (one writer, one reader goroutine it owns),
// so implementations need not serialise concurrent calls.
type Conn interface {
	// WriteLine sends one protocol line (newline appended).
	WriteLine(line string) error
	// ReadLine blocks for the next worker line. Closing the connection from
	// another goroutine must unblock it with an error.
	ReadLine() (string, error)
	// Abort tears the connection down on the error path: the peer is
	// presumed broken (killed and reaped for subprocesses, socket closed for
	// TCP). Idempotent with Shutdown — exactly one of the two runs.
	Abort()
	// Shutdown closes the connection on the orderly path: the worker is told
	// the session is over (stdin EOF for subprocesses, a BYE line for TCP)
	// and the close is graceful.
	Shutdown() error
	// Name labels the peer for diagnostics ("pid 4242", "10.0.0.7:52114").
	Name() string
}

// Transport supplies the pool's worker connections. However a connection
// arrives, it goes through the pool's one lifecycle: it joins the
// membership, serves cells from the shared queue until the pool closes (an
// orderly Shutdown) or it fails (Abort, with its in-flight cell requeued),
// and leaves. The transports differ only in where connections come from:
//
//   - PipeTransport runs N slots; each dials a worker subprocess and
//     re-dials it with exponential backoff after it fails.
//   - ListenTransport accepts connections from workers that dial the
//     coordinator; membership is elastic, and a worker that leaves
//     re-dials with its own backoff.
type Transport interface {
	// feed starts the transport's connection sources on p.
	feed(p *Pool)
	// Close releases transport resources (listeners, unclaimed
	// connections). Connections already handed to the pool are closed by
	// the pool, not the transport.
	Close() error
}

// PipeTransport is the subprocess transport: each connection is a worker
// process (Command) speaking the protocol on its stdin/stdout. This is the
// transport behind the figures -procs flag.
type PipeTransport struct {
	// N is the number of worker slots; values < 1 mean 1.
	N int
	// Command prepares one worker process. Stdin/Stdout must be left unset —
	// the transport wires them to pipes.
	Command func() (*exec.Cmd, error)

	dial func() Conn // test hook: scripted connections in place of subprocesses
}

func (t *PipeTransport) feed(p *Pool) {
	dial := t.dial
	if dial == nil {
		dial = func() Conn { return &pipeConn{command: t.Command, ready: make(chan struct{})} }
	}
	for range max(t.N, 1) {
		p.start(func() { p.slotLoop(dial) })
	}
}

// Close implements Transport.
func (t *PipeTransport) Close() error { return nil }

// pipeConn is one worker subprocess, started by the connection's first
// WriteLine: a slot dials before any cell is assigned, so no process runs
// until a cell is, and a spawn error — or a binary that dies at start-up —
// fails that cell's attempt like any other worker failure.
type pipeConn struct {
	command func() (*exec.Cmd, error)
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	rd      *bufio.Reader
	// ready is closed once the process is up, or when the connection is
	// closed before it ever started; ReadLine waits for it.
	ready     chan struct{}
	readyOnce sync.Once
}

func (c *pipeConn) start() error {
	if c.command == nil {
		return errors.New("no worker command")
	}
	cmd, err := c.command()
	if err != nil {
		return err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	c.cmd, c.stdin, c.rd = cmd, stdin, bufio.NewReader(stdout)
	c.readyOnce.Do(func() { close(c.ready) })
	return nil
}

func (c *pipeConn) WriteLine(line string) error {
	if c.cmd == nil {
		if err := c.start(); err != nil {
			return fmt.Errorf("runner: spawning worker: %w", err)
		}
	}
	if _, err := fmt.Fprintf(c.stdin, "%s\n", line); err != nil {
		return fmt.Errorf("runner: worker write: %w", err)
	}
	return nil
}

func (c *pipeConn) ReadLine() (string, error) {
	<-c.ready
	if c.rd == nil {
		return "", io.EOF // closed before the process started
	}
	return c.rd.ReadString('\n')
}

// Abort tears down a failed worker: the process is killed and reaped so the
// slot can re-dial. Wait runs exactly once per process — here on the error
// path, or in Shutdown on the orderly path.
func (c *pipeConn) Abort() {
	c.readyOnce.Do(func() { close(c.ready) })
	if c.cmd == nil {
		return
	}
	c.stdin.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// Shutdown closes the worker via the orderly path: stdin EOF tells the
// subprocess to exit, then one Wait reaps it. The process is not killed —
// Kill is reserved for Abort.
func (c *pipeConn) Shutdown() error {
	c.readyOnce.Do(func() { close(c.ready) })
	if c.cmd == nil {
		return nil
	}
	c.stdin.Close()
	return c.cmd.Wait()
}

func (c *pipeConn) Name() string {
	if c.cmd != nil {
		return fmt.Sprintf("worker pid %d", c.cmd.Process.Pid)
	}
	return "worker subprocess"
}

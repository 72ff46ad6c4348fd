package runner

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
)

// Conn is one live worker connection speaking the line-oriented SPEC/cell
// protocol: the coordinator writes assignment lines ("SPEC <name>", a
// decimal cell index, or "BYE"), the worker answers with one JSON cellMsg
// line per cell plus optional heartbeat lines. A Conn is driven by exactly
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

// Transport supplies the pool's worker connections. Two shapes exist:
//
//   - Pool-driven (PipeTransport): the pool owns a fixed number of
//     connection slots and establishes each connection itself via Connect —
//     spawning a worker subprocess wired to pipes. Slots reports the slot
//     count and Joined returns nil.
//   - Worker-driven (ListenTransport): workers establish the connections by
//     dialing the coordinator; membership is elastic — workers may join
//     mid-run and leave without failing the run. Slots reports 0 and
//     Connect is never called; connections arrive on Joined.
type Transport interface {
	// Slots is the number of pool-driven connection slots; 0 means the
	// transport is worker-driven.
	Slots() int
	// Connect establishes one pool-driven connection. Only called when
	// Slots() > 0.
	Connect() (Conn, error)
	// Joined delivers worker-initiated connections until the transport is
	// closed; nil for pool-driven transports.
	Joined() <-chan Conn
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
}

// Slots implements Transport.
func (t *PipeTransport) Slots() int {
	if t.N < 1 {
		return 1
	}
	return t.N
}

// Connect implements Transport: it spawns one worker subprocess.
func (t *PipeTransport) Connect() (Conn, error) {
	if t.Command == nil {
		return nil, fmt.Errorf("runner: pipe transport without a worker command")
	}
	cmd, err := t.Command()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &pipeConn{cmd: cmd, stdin: stdin, rd: bufio.NewReader(stdout)}, nil
}

// Joined implements Transport (pool-driven: nil).
func (t *PipeTransport) Joined() <-chan Conn { return nil }

// Close implements Transport.
func (t *PipeTransport) Close() error { return nil }

// pipeConn is one live worker subprocess.
type pipeConn struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	rd    *bufio.Reader
}

func (c *pipeConn) WriteLine(line string) error {
	if _, err := fmt.Fprintf(c.stdin, "%s\n", line); err != nil {
		return fmt.Errorf("runner: worker write: %w", err)
	}
	return nil
}

func (c *pipeConn) ReadLine() (string, error) {
	return c.rd.ReadString('\n')
}

// Abort tears down a failed worker: the process is killed and reaped so the
// slot can respawn. Wait runs exactly once per process — here on the error
// path, or in Shutdown on the orderly path.
func (c *pipeConn) Abort() {
	c.stdin.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// Shutdown closes the worker via the orderly path: stdin EOF tells the
// subprocess to exit, then one Wait reaps it. The process is not killed —
// Kill is reserved for Abort.
func (c *pipeConn) Shutdown() error {
	c.stdin.Close()
	return c.cmd.Wait()
}

func (c *pipeConn) Name() string {
	if c.cmd.Process != nil {
		return fmt.Sprintf("worker pid %d", c.cmd.Process.Pid)
	}
	return "worker subprocess"
}

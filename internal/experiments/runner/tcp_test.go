package runner

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// startTCPPool boots a coordinator on a loopback port, retiring a worker
// silent for silence, and returns the pool plus the address workers should
// dial.
func startTCPPool(t testing.TB, cfg Config, silence time.Duration) (*Pool, string) {
	t.Helper()
	tr, err := listen("127.0.0.1:0", silence)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(tr, cfg)
	t.Cleanup(pool.Close)
	return pool, tr.Addr()
}

// startTCPWorker runs an in-process remote worker against addr; the
// returned channel carries ConnectWorker's exit status.
func startTCPWorker(t testing.TB, addr string, opts WorkerOptions) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ConnectWorker(addr, buildTestSpec, opts) }()
	return done
}

// tcpTestCfg keeps networked tests fast and deterministic: fixed deadline
// (no 10-minute bootstrap), millisecond backoff, a tight membership
// window. tcpTestSilence is the matching dead-peer limit.
func tcpTestCfg() Config {
	return Config{
		Deadline:    5 * time.Second,
		backoff:     backoffConfig{base: time.Millisecond, max: 10 * time.Millisecond},
		rejoinGrace: 300 * time.Millisecond,
	}
}

const tcpTestSilence = 2 * time.Second

// workerTestOpts mirrors tcpTestCfg on the worker side.
func workerTestOpts() WorkerOptions {
	return WorkerOptions{
		heartbeat: 50 * time.Millisecond,
		backoff:   backoffConfig{base: time.Millisecond, max: 10 * time.Millisecond},
	}
}

// TestTCPPoolMatchesLocal: two loopback workers produce the same reduced
// table as the in-process backend — placement cannot leak into results.
func TestTCPPoolMatchesLocal(t *testing.T) {
	s := namedSpec(t, "grid-3x2x2")
	pool, addr := startTCPPool(t, tcpTestCfg(), tcpTestSilence)
	w1 := startTCPWorker(t, addr, workerTestOpts())
	w2 := startTCPWorker(t, addr, workerTestOpts())
	g, err := pool.Run(s)
	if err != nil {
		t.Fatalf("TCP pool run: %v", err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP run diverged from Local:\ngot  %+v\nwant %+v", got, want)
	}
	pool.Close() // BYE both workers so ConnectWorker returns nil
	for i, w := range []<-chan error{w1, w2} {
		if err := <-w; err != nil {
			t.Fatalf("worker %d exit: %v", i+1, err)
		}
	}
}

// TestTCPWorkerJoinsMidRun: the run starts with zero workers and completes
// once one dials in — elastic membership, no pre-registration.
func TestTCPWorkerJoinsMidRun(t *testing.T) {
	s := namedSpec(t, "grid-3x2x1")
	cfg := tcpTestCfg()
	cfg.rejoinGrace = 10 * time.Second // no workers yet ≠ all workers gone
	pool, addr := startTCPPool(t, cfg, tcpTestSilence)
	type result struct {
		g   *Grid
		err error
	}
	res := make(chan result, 1)
	go func() {
		g, err := pool.Run(s)
		res <- result{g, err}
	}()
	time.Sleep(100 * time.Millisecond) // run is underway, queue unserved
	startTCPWorker(t, addr, workerTestOpts())
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("run with late-joining worker: %v", r.err)
		}
		if err := r.g.Complete(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete after a worker joined")
	}
}

// TestTCPWorkerLeavesRunContinues: one worker departs permanently mid-run;
// the survivor finishes the grid, results intact.
func TestTCPWorkerLeavesRunContinues(t *testing.T) {
	s := namedSpec(t, "grid-4x2x2") // 16 cells
	pool, addr := startTCPPool(t, tcpTestCfg(), tcpTestSilence)
	leaver := workerTestOpts()
	leaver.Fault = &Fault{Kind: "disconnect", After: 1}
	leaver.maxAttempts = 1 // no rejoin: the worker truly leaves
	w1 := startTCPWorker(t, addr, leaver)
	startTCPWorker(t, addr, workerTestOpts())
	g, err := pool.Run(s)
	if err != nil {
		t.Fatalf("run with a departing worker: %v", err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run with a departing worker diverged from Local")
	}
	if err := <-w1; err == nil {
		t.Fatal("expected the departing worker to give up with an error")
	}
}

// TestTCPZeroMembershipFails: when every worker has left and none rejoins
// within the grace window, the run fails with an error naming the last
// worker failure instead of hanging on an unserved queue.
func TestTCPZeroMembershipFails(t *testing.T) {
	s := namedSpec(t, "work-8x2x2-2000000") // enough cells+work to outlive the worker
	pool, addr := startTCPPool(t, tcpTestCfg(), tcpTestSilence)
	leaver := workerTestOpts()
	leaver.Fault = &Fault{Kind: "disconnect", After: 2}
	leaver.maxAttempts = 1
	startTCPWorker(t, addr, leaver)
	_, err := pool.Run(s)
	if err == nil {
		t.Fatal("run completed despite losing its only worker")
	}
	if !strings.Contains(err.Error(), "all workers left the pool") ||
		!strings.Contains(err.Error(), "last worker failure") {
		t.Fatalf("zero-membership error = %v; want it to name the membership collapse and last failure", err)
	}
}

// TestTCPWorkerOfAnotherGridFailsRun: a worker whose build of the spec has
// a smaller grid (another build of the figures, say) refuses the first
// cell outside it with a Fatal reply, and the run fails at once naming the
// mismatch, not after the rejoin grace as a dropped connection.
func TestTCPWorkerOfAnotherGridFailsRun(t *testing.T) {
	s := namedSpec(t, "grid-4x2x2") // 16 cells; the worker's build has 8
	cfg := tcpTestCfg()
	cfg.rejoinGrace = rejoinGrace
	pool, addr := startTCPPool(t, cfg, tcpTestSilence)
	opts := workerTestOpts()
	opts.maxAttempts = 1
	go ConnectWorker(addr, func(name, options string) (*Spec, error) {
		small, err := buildTestSpec("grid-2x2x2", options)
		if small != nil {
			small.Name = name
		}
		return small, err
	}, opts)
	start := time.Now()
	_, err := pool.Run(s)
	if err == nil || !strings.Contains(err.Error(), "cell 8 failed") ||
		!strings.Contains(err.Error(), "cell assignment 8 outside grid of 8 cells") {
		t.Fatalf("run against a worker of another grid: %v; want it to name cell 8 and the grid mismatch", err)
	}
	if elapsed := time.Since(start); elapsed > rejoinGrace/2 {
		t.Fatalf("run failed after %v, not well under the %v rejoin grace", elapsed, rejoinGrace)
	}
}

// TestTCPWedgedWorkerConvertedByDeadline: a wedged remote worker (alive,
// silent) is cut off by the response deadline; its reconnect serves the
// requeued cell, and the output matches Local.
func TestTCPWedgedWorkerConvertedByDeadline(t *testing.T) {
	s := namedSpec(t, "grid-3x2x1")
	cfg := tcpTestCfg()
	cfg.Deadline = 150 * time.Millisecond
	// The lone worker stays wedged (and disconnected) for most of its 1s
	// sleep; the rejoin grace must span that, or zero-membership fires
	// first — the correct outcome for a worker that never comes back.
	cfg.rejoinGrace = 10 * time.Second
	pool, addr := startTCPPool(t, cfg, tcpTestSilence)
	opts := workerTestOpts()
	opts.Fault = &Fault{Kind: "wedge", After: 1, Delay: time.Second}
	startTCPWorker(t, addr, opts)
	start := time.Now()
	g, err := pool.Run(s)
	if err != nil {
		t.Fatalf("run with wedging worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("wedge conversion took %v", elapsed)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wedged-worker run diverged from Local")
	}
}

// TestTCPHeartbeatLifecycle: a mute connection (no heartbeats) is retired
// by the staleness check, while a heartbeating worker is kept, idle or busy
// with a cell longer than the window.
func TestTCPHeartbeatLifecycle(t *testing.T) {
	pool, addr := startTCPPool(t, tcpTestCfg(), 200*time.Millisecond)

	// A raw socket that joins and never says anything — the half-open-
	// connection stand-in.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	waitLive := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for pool.LiveWorkers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: live=%d, want %d", what, pool.LiveWorkers(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitLive(1, "mute conn joined")
	waitLive(0, "mute conn retired by heartbeat staleness")

	// A real worker heartbeating at 50ms stays a member well past the
	// 200ms staleness window.
	startTCPWorker(t, addr, workerTestOpts())
	waitLive(1, "heartbeating worker joined")
	time.Sleep(600 * time.Millisecond)
	if got := pool.LiveWorkers(); got != 1 {
		t.Fatalf("heartbeating idle worker was retired: live=%d", got)
	}

	// Cells that outlast the staleness window still complete: the worker
	// heartbeats mid-cell too, so only a dead peer goes silent.
	if _, err := pool.Run(namedSpec(t, "nap-2x1x1-400")); err != nil {
		t.Fatalf("cells slower than the staleness window: %v", err)
	}
}

// BenchmarkPoolTCPLoopback is BenchmarkPoolPipelined over loopback TCP
// instead of pipes: same specs, two in-process remote workers, measuring
// the transport's added overhead.
func BenchmarkPoolTCPLoopback(b *testing.B) {
	specs := benchPoolSpecs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		pool := NewPool(tr, Config{Deadline: time.Minute})
		w1 := startTCPWorker(b, tr.Addr(), workerTestOpts())
		w2 := startTCPWorker(b, tr.Addr(), workerTestOpts())
		if _, err := pool.RunAll(specs, nil, nil); err != nil {
			b.Fatal(err)
		}
		pool.Close()
		<-w1
		<-w2
	}
}

// TestConnectWorkerServedSessionEndsStreak: a coordinator that hands the
// worker one cell and then drops the connection, workerMaxAttempts+1
// times in a row, must not wear out a long-lived worker — a session that
// served a cell ends the failure streak — and the BYE that follows ends
// it with nil. Every retry after such a session waits the schedule's
// base delay, not a doubled one.
func TestConnectWorkerServedSessionEndsStreak(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drops := workerMaxAttempts + 1
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if i == drops {
				fmt.Fprintf(c, "%s\n", protoBye)
				c.Close()
				return
			}
			fmt.Fprintf(c, "SPEC grid-1x1x1\n0\n")
			sc := bufio.NewScanner(c)
			for sc.Scan() && strings.Contains(sc.Text(), `"hb"`) {
			}
			c.Close() // the cell's response is in; drop without BYE
		}
	}()
	base := time.Millisecond
	var sleeps []time.Duration
	opts := WorkerOptions{
		backoff: backoffConfig{base: base, max: time.Second},
		sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	if err := ConnectWorker(ln.Addr().String(), buildTestSpec, opts); err != nil {
		t.Fatalf("ConnectWorker after %d served-then-dropped sessions: %v", drops, err)
	}
	if len(sleeps) != drops {
		t.Fatalf("%d retries, want %d", len(sleeps), drops)
	}
	for i, d := range sleeps {
		if d != base {
			t.Fatalf("retry %d waited %v, want the base delay %v", i, d, base)
		}
	}
}

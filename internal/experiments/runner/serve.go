package runner

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// protoBye is the coordinator's orderly end-of-session line: a worker that
// reads it knows the coordinator is done with it (as opposed to a bare EOF,
// which on a network transport may also be a dropped connection).
const protoBye = "BYE"

// heartbeatLine is the worker's keep-alive: a cellMsg carrying only hb, so
// the coordinator can tell a live peer from a dead one on transports where
// peer death is otherwise silent (TCP half-open).
const heartbeatLine = `{"hb":true}`

// ErrBye reports that the coordinator ended the session with a BYE line.
// ConnectWorker uses it to distinguish an orderly end (exit) from a dropped
// connection (reconnect); the pipes path treats it like EOF.
var ErrBye = errors.New("runner: coordinator ended the session")

// cellMsg is one worker-protocol response: the cell index it answers, and
// either the cell's values (plus its wall-clock nanoseconds, a diagnostic
// the coordinator's grid records) or the error it failed with.
type cellMsg struct {
	Idx    int       `json:"i"`
	Values []float64 `json:"v,omitempty"`
	Nanos  int64     `json:"ns,omitempty"`
	Err    string    `json:"err,omitempty"`
	// Hb marks a heartbeat rather than a cell result; the coordinator uses
	// it for dead-peer detection on networked transports.
	Hb bool `json:"hb,omitempty"`
}

// ServeOptions tunes the worker half of the pool protocol.
type ServeOptions struct {
	// Fault optionally injects one failure mode into the session — the
	// fault matrix behind `figures -faultinject` and the runner's
	// robustness tests.
	Fault *Fault

	// heartbeat, when positive, emits a heartbeat line at this interval
	// for the whole session, idle or mid-cell. ConnectWorker sets it
	// (workerHeartbeat); subprocess workers don't need it — a dead
	// subprocess is visible to the coordinator as pipe EOF immediately.
	heartbeat time.Duration
}

// lineWriter serialises protocol writes from the serve loop and the
// heartbeat goroutine onto one buffered writer.
type lineWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func (w *lineWriter) writeLine(line string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.bw.WriteString(line); err != nil {
		return err
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ServePool runs the worker half of the pool protocol: lines on r are
// either "SPEC <name> <options>" — switch to serving the named spec under
// the coordinator's options (Spec.Options), built via build — a decimal
// cell index for the current spec, or BYE (end of session). The worker's
// own options never enter a grid: a spec that build returns under other
// options than the coordinator's ends the session. One JSON result line
// per cell goes to w, carrying the cell's wall-clock nanoseconds. It
// returns nil on EOF, ErrBye when the coordinator sent BYE, and any other
// error on a broken session.
func ServePool(build func(name, options string) (*Spec, error), r io.Reader, w io.Writer, opts ServeOptions) error {
	_, err := servePool(build, r, w, opts)
	return err
}

// servePool is ServePool that also counts the cells the session answered.
func servePool(build func(name, options string) (*Spec, error), r io.Reader, w io.Writer, opts ServeOptions) (served int, err error) {
	var cur *Spec
	lw := &lineWriter{bw: bufio.NewWriter(w)}

	if opts.heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(opts.heartbeat)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if lw.writeLine(heartbeatLine) != nil {
						return // transport gone; the serve loop will notice
					}
				}
			}
		}()
	}

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == protoBye {
			return served, ErrBye
		}
		if rest, ok := strings.CutPrefix(line, "SPEC "); ok {
			name, options, _ := strings.Cut(strings.TrimSpace(rest), " ")
			options = strings.TrimSpace(options)
			if cur != nil && cur.Name == name && cur.Options == options {
				continue
			}
			s, err := build(name, options)
			if err != nil {
				return served, err
			}
			if err := s.Validate(); err != nil {
				return served, err
			}
			if s.Options != options {
				return served, fmt.Errorf("runner: worker built spec %s under options %q, coordinator runs %q",
					name, s.Options, options)
			}
			cur = s
			continue
		}
		if cur == nil {
			return served, fmt.Errorf("runner: cell assignment %q before any SPEC line", line)
		}
		if err := serveAssignment(cur, line, lw, opts.Fault); err != nil {
			return served, err
		}
		served++
	}
	return served, sc.Err()
}

// serveAssignment evaluates one cell assignment and writes the response,
// threading the fault hooks through the read-evaluate-respond cycle.
func serveAssignment(s *Spec, line string, lw *lineWriter, fault *Fault) error {
	if err := fault.onAssignment(); err != nil {
		return err
	}
	msg, err := serveCell(s, line)
	if err != nil {
		return err
	}
	out, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	if err := lw.writeLine(fault.mangleResponse(string(out))); err != nil {
		return err
	}
	fault.afterResponse()
	return nil
}

// serveCell evaluates one assignment line against the spec and builds the
// reply. Cell failures travel inside the message — the worker stays up; only
// malformed assignments are protocol errors that bring the worker down.
func serveCell(s *Spec, line string) (cellMsg, error) {
	idx, err := strconv.Atoi(line)
	if err != nil {
		return cellMsg{}, fmt.Errorf("runner: bad cell assignment %q: %w", line, err)
	}
	if idx < 0 || idx >= s.Cells() {
		return cellMsg{}, fmt.Errorf("runner: cell assignment %d outside grid of %d cells", idx, s.Cells())
	}
	msg := cellMsg{Idx: idx}
	xi, vi, run := s.Coords(idx)
	start := time.Now() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
	v, err := s.Cell(xi, vi, run)
	if err != nil {
		msg.Err = err.Error()
		return msg, nil
	}
	msg.Values = v
	msg.Nanos = time.Since(start).Nanoseconds() //repcheck:allow-wallclock per-cell timing is diagnostic metadata, not a result value
	return msg, nil
}

package runner

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Fault is one injected worker failure mode — the deterministic stand-ins
// for the ways a real worker goes wrong, shared by the runner tests and
// `figures -faultinject`. A fault arms after After healthy responses and
// fires once per process (a respawned or reconnected worker holding the
// same Fault stays healthy afterwards), so every mode converts into the
// pool's requeue path at a known cell and the run still completes:
//
//	exit        the process exits right after writing response After — the
//	            classic crash; the next assignment hits a dead pipe
//	wedge       on the next assignment the worker stops responding but
//	            stays alive: only the response deadline can convert it
//	slow        every response from After on is delayed by Delay; under the
//	            deadline this is pure jitter, over it the worker is treated
//	            as wedged
//	garbage     response After+1 is replaced by a non-JSON line
//	disconnect  the worker drops the connection mid-cell: assignment
//	            After+1 is read but never answered
type Fault struct {
	// Kind is one of exit, wedge, slow, garbage, disconnect.
	Kind string
	// After is how many responses are served healthily first.
	After int
	// Delay is the slow-mode per-response delay and the wedge-mode stuck
	// time; 0 selects 250ms (slow) / 2min (wedge).
	Delay time.Duration

	served int  // responses fully written
	fired  bool // one-shot modes only fire once per process
}

// FaultKinds lists the supported fault matrix, in documentation order.
var FaultKinds = []string{"exit", "wedge", "slow", "garbage", "disconnect"}

// ParseFault parses a -faultinject value: "" is no fault, and
// "kind:N[:delay]" selects a matrix mode; only slow and wedge take the
// delay, the others refuse one.
func ParseFault(s string) (*Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("runner: invalid fault %q, want kind:N[:delay]", s)
	}
	f := &Fault{Kind: parts[0]}
	known := false
	for _, k := range FaultKinds {
		if f.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("runner: unknown fault kind %q (want %s)", f.Kind, strings.Join(FaultKinds, ", "))
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("runner: invalid fault count in %q", s)
	}
	f.After = n
	if len(parts) == 3 {
		if f.Kind != "slow" && f.Kind != "wedge" {
			return nil, fmt.Errorf("runner: fault %q takes no delay (only slow and wedge do)", f.Kind)
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("runner: invalid fault delay in %q", s)
		}
		f.Delay = d
	}
	return f, nil
}

// String renders the fault back into -faultinject syntax.
func (f *Fault) String() string {
	if f == nil {
		return ""
	}
	if f.Delay > 0 {
		return fmt.Sprintf("%s:%d:%s", f.Kind, f.After, f.Delay)
	}
	return fmt.Sprintf("%s:%d", f.Kind, f.After)
}

// delay returns the effective slow/wedge duration.
func (f *Fault) delay() time.Duration {
	if f.Delay > 0 {
		return f.Delay
	}
	if f.Kind == "wedge" {
		return 2 * time.Minute
	}
	return 250 * time.Millisecond
}

// errFaultDisconnect makes the serve loop drop the connection without
// answering the in-flight cell.
var errFaultDisconnect = fmt.Errorf("runner: fault injection, disconnecting mid-cell")

// onAssignment fires the in-flight faults: called after an assignment line
// is read, before the cell is evaluated. A wedged worker sleeps here — by
// the time it resumes the coordinator has retired the connection, so its
// stale response hits a dead transport and the session ends; a
// disconnecting worker aborts the session outright.
func (f *Fault) onAssignment() error {
	if f == nil || f.fired || f.served < f.After {
		return nil
	}
	switch f.Kind {
	case "wedge":
		f.fired = true
		fmt.Fprintf(os.Stderr, "runner: fault injection, worker wedged for %v\n", f.delay())
		time.Sleep(f.delay())
	case "disconnect":
		f.fired = true
		fmt.Fprintln(os.Stderr, "runner: fault injection, worker disconnecting mid-cell")
		return errFaultDisconnect
	}
	return nil
}

// mangleResponse fires the response-stream faults: slow delays the
// response, garbage replaces it with a line no JSON decoder accepts.
func (f *Fault) mangleResponse(line string) string {
	if f == nil || f.fired || f.served < f.After {
		return line
	}
	switch f.Kind {
	case "slow":
		time.Sleep(f.delay()) // every response from After on; never "fired"
	case "garbage":
		f.fired = true
		fmt.Fprintln(os.Stderr, "runner: fault injection, worker emitting garbage")
		return "!!not json!!"
	}
	return line
}

// afterResponse counts a flushed response and fires the exit fault: the
// process dies right after response After is on the wire, so the
// coordinator receives that cell's result and the *next* assignment hits
// the dead pipe, exercising the requeue path at a known cell.
func (f *Fault) afterResponse() {
	if f == nil {
		return
	}
	f.served++
	if f.Kind == "exit" && !f.fired && f.served >= f.After {
		f.fired = true
		fmt.Fprintln(os.Stderr, "runner: fault injection, worker exiting after response")
		os.Exit(1)
	}
}

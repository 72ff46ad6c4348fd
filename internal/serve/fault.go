package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// FaultKind selects one failure mode for the chaos harness. Each kind maps
// to a failure the hardening is supposed to absorb: a slow consumer backs
// the queue up into the shed threshold, an ingest flood amplifies admitted
// load, a checkpoint-write failure exercises the atomic-rename guarantee,
// and a mid-round kill exercises WAL-replay recovery.
type FaultKind int

const (
	// FaultNone injects nothing.
	FaultNone FaultKind = iota
	// FaultSlow delays the consumer after each served round ("slow").
	FaultSlow
	// FaultFlood amplifies every admitted ingest by a factor of synthetic
	// standard-class copies, pushed through the normal admission path
	// ("flood").
	FaultFlood
	// FaultCkptFail makes checkpoint writes fail ("ckptfail"); the previous
	// complete checkpoint must survive.
	FaultCkptFail
	// FaultKill terminates the process mid-window, after a round is served
	// but before the next checkpoint ("kill").
	FaultKill
)

// faultNames are the matrix names of the kinds, indexed by kind.
var faultNames = [...]string{"none", "slow", "flood", "ckptfail", "kill"}

// String returns the matrix name of the kind.
func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one armed injection: Kind arms after After trigger events
// (served rounds for slow and kill, successful checkpoints for ckptfail,
// admitted ingests for flood), with a kind-specific parameter.
type Fault struct {
	Kind  FaultKind
	After int
	// Delay is the per-round consumer stall for slow faults.
	Delay time.Duration
	// Factor is the amplification for flood faults: each admitted ingest
	// spawns Factor-1 synthetic copies.
	Factor int
}

// Active reports whether the fault has armed given the number of trigger
// events seen so far.
func (f Fault) Active(events int) bool {
	return f.Kind != FaultNone && events >= f.After
}

// ParseFault parses the matrix syntax kind[:after[:param]], mirroring the
// figure runner's fault flags:
//
//	slow[:after[:delay]]      delay per served round (duration, default 50ms)
//	flood[:after[:factor]]    amplification factor (default 8)
//	ckptfail[:after]          checkpoint writes fail after N successes
//	kill[:after]              die mid-window after N served rounds
//	none / ""                 nothing
func ParseFault(s string) (Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Fault{}, nil
	}
	parts := strings.Split(s, ":")
	kind := FaultKind(slices.Index(faultNames[:], parts[0]))
	if kind <= FaultNone {
		return Fault{}, fmt.Errorf("serve: unknown fault %q (want slow, flood, ckptfail, kill)", parts[0])
	}
	f := Fault{Kind: kind, Delay: 50 * time.Millisecond, Factor: 8}
	if len(parts) > 1 && parts[1] != "" {
		after, err := strconv.Atoi(parts[1])
		if err != nil || after < 0 {
			return Fault{}, fmt.Errorf("serve: bad fault trigger count %q", parts[1])
		}
		f.After = after
	}
	if len(parts) > 2 && parts[2] != "" {
		switch f.Kind {
		case FaultSlow:
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return Fault{}, fmt.Errorf("serve: bad slow-fault delay %q", parts[2])
			}
			f.Delay = d
		case FaultFlood:
			factor, err := strconv.Atoi(parts[2])
			if err != nil || factor < 2 {
				return Fault{}, fmt.Errorf("serve: bad flood factor %q (want >= 2)", parts[2])
			}
			f.Factor = factor
		default:
			return Fault{}, fmt.Errorf("serve: fault %q takes no parameter", parts[0])
		}
	}
	if len(parts) > 3 {
		return Fault{}, fmt.Errorf("serve: bad fault spec %q (want kind[:after[:param]])", s)
	}
	return f, nil
}

// Package serve turns the batch simulation engine into a long-running
// placement service: an unbounded stream of requests is folded into
// per-round demand windows, any sim.Algorithm plays the synchronous game
// incrementally (through sim.Stream), and the service exposes the current
// placement plus a rolling cost ledger — hardened the way the figure
// runner's worker pool is hardened.
//
// The layers, bottom up:
//
//   - Engine (engine.go) folds admitted arrivals into a demand window
//     (cost.Accumulator) and serves a round whenever the window fills or a
//     tick closes it, quarantining a panicking or failing algorithm round
//     instead of killing the process.
//   - IngestQueue (queue.go) bounds admission: when the queue passes the
//     shed threshold, non-critical classes are refused (429 + per-class
//     shed counters); when it is full, everything is.
//   - WAL (wal.go, log.go) persists every admitted arrival and round tick
//     in admission order, in rotating segment files; Checkpoint
//     (checkpoint.go) snapshots the engine state (stream cursor, round,
//     ledger totals, open window, the algorithm's exact run state)
//     atomically. A crash is recovered by restoring the last checkpoint
//     into a fresh, deterministic engine and replaying the WAL entries
//     past its cursor — the recovered ledger is bit-identical to an
//     uninterrupted run over the same admitted stream.
//   - Metrics (metrics.go) keeps rolling per-class admission/shed/served
//     counters and sojourn-latency percentiles (slo_class "critical" is
//     tracked separately, so overload policies are observable).
//   - Server (server.go) owns the single consuming goroutine, periodic
//     checkpoints, graceful drain (stop admitting, flush the queue, final
//     checkpoint), and the fault-injection matrix (fault.go); http.go puts
//     the HTTP/JSON front on it.
package serve

import (
	"fmt"
	"slices"
	"strings"
)

// Class is a request's SLO class. Critical requests are shed only when the
// ingest queue is completely full; Standard and Batch requests are shed as
// soon as the queue passes the shed threshold, Batch first in metrics'
// accounting of who to blame.
type Class uint8

const (
	// Critical is the latency-sensitive class ("slo_class": "critical");
	// it is tracked separately in metrics and admitted until the queue is
	// hard-full.
	Critical Class = iota
	// Standard is the default class for requests without an slo_class.
	Standard
	// Batch is throughput traffic, first to be shed under overload.
	Batch

	numClasses = 3
)

// classNames are the wire names of the classes, indexed by class.
var classNames = [numClasses]string{"critical", "standard", "batch"}

// String returns the wire name of the class.
func (c Class) String() string {
	if int(c) < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass parses a wire slo_class name; the empty string is Standard.
func ParseClass(s string) (Class, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" {
		return Standard, nil
	}
	if i := slices.Index(classNames[:], name); i >= 0 {
		return Class(i), nil
	}
	return Standard, fmt.Errorf("serve: unknown slo_class %q (want critical, standard, or batch)", s)
}

// Classes lists every class, for iterating metrics.
func Classes() []Class { return []Class{Critical, Standard, Batch} }

// Request is one ingest submission: Count requests arriving at access
// point Node under an SLO class. Count defaults to 1 on the wire.
type Request struct {
	Node  int
	Count int
	Class Class
}

// normalize applies the wire default (a zero Count means one request) and
// validates the result against the network size.
func (r Request) normalize(n int) (Request, error) {
	if r.Count == 0 {
		r.Count = 1
	}
	return r, r.Validate(n)
}

// Validate checks the request against the network size.
func (r Request) Validate(n int) error {
	if r.Node < 0 || r.Node >= n {
		return fmt.Errorf("serve: access point %d outside network of %d nodes", r.Node, n)
	}
	if r.Count <= 0 {
		return fmt.Errorf("serve: non-positive request count %d", r.Count)
	}
	return nil
}

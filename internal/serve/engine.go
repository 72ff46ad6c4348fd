package serve

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sim"
)

// DefaultWindow is how many admitted requests close a demand window when
// no tick does first.
const DefaultWindow = 64

// DefaultKeepRounds is the rolling ledger's ring size.
const DefaultKeepRounds = 256

// QuarantineError records one algorithm round that panicked or failed and
// was quarantined: the round's demand window is dropped, the process and
// the stream survive, and the failure is counted and kept for inspection.
type QuarantineError struct {
	Round int
	Cause string
}

func (q *QuarantineError) Error() string {
	return fmt.Sprintf("serve: round %d quarantined: %s", q.Round, q.Cause)
}

// RoundOutcome reports what applying one entry did.
type RoundOutcome struct {
	// Served is true when the entry closed a demand window and the round
	// was played successfully; Cost is that round's ledger entry.
	Served bool
	Cost   sim.RoundCost
	// Quarantined is non-nil when the entry closed a window but the
	// algorithm panicked or failed; the window was dropped.
	Quarantined *QuarantineError
}

// Closed reports whether the entry ended a demand window either way.
func (o RoundOutcome) Closed() bool { return o.Served || o.Quarantined != nil }

// Engine is the incremental streaming core: it consumes admitted entries
// in order, folds arrivals into the current demand window (a
// cost.Accumulator, so folding is O(distinct nodes) per arrival), and
// serves a simulation round through sim.Stream whenever the window fills
// (Window admitted requests) or a tick closes it. The engine is
// deterministic in the entry sequence — the property WAL replay recovery
// rests on — and must be driven by a single goroutine.
type Engine struct {
	stream      *sim.Stream
	window      *cost.Accumulator
	windowCount int
	windowSize  int
	cursor      int // entries applied, the checkpoint stream cursor
	quarantined int
	lastQuar    *QuarantineError

	// ring holds the most recent served rounds for the rolling ledger.
	ring     []sim.RoundCost
	ringNext int
	ringLen  int
}

// NewEngine wraps a stream; its rolling ledger keeps the last keepRounds
// served rounds. window <= 0 selects DefaultWindow. The stream's per-round
// ledger retention is disabled — the engine's ring and the stream's
// running totals are the rolling ledger.
func NewEngine(stream *sim.Stream, window, keepRounds int) *Engine {
	if window <= 0 {
		window = DefaultWindow
	}
	stream.DiscardRounds()
	return &Engine{
		stream:     stream,
		window:     cost.NewAccumulator(stream.Env().Graph.N()),
		windowSize: window,
		ring:       make([]sim.RoundCost, keepRounds),
	}
}

// Apply consumes one entry: a tick closes the current window (possibly
// empty — idle rounds still accrue running costs); an arrival folds into
// the window and closes it when the window fills. The returned outcome
// says whether a round was served or quarantined. Apply is deterministic
// in the sequence of entries applied since the engine was built.
func (e *Engine) Apply(entry Entry) RoundOutcome {
	e.cursor++
	if entry.Tick {
		return e.serveRound()
	}
	e.window.Add(cost.DemandFromPairs(cost.NodeCount{Node: entry.Node, Count: entry.Count}))
	e.windowCount += entry.Count
	if e.windowCount >= e.windowSize {
		return e.serveRound()
	}
	return RoundOutcome{}
}

// serveRound plays the window as one simulation round, quarantining a
// panicking or failing algorithm instead of propagating.
func (e *Engine) serveRound() RoundOutcome {
	d := e.window.Demand()
	e.window.Reset()
	e.windowCount = 0
	rc, err := e.safeServe(d)
	if err != nil {
		q := &QuarantineError{Round: e.stream.Round(), Cause: err.Error()}
		e.quarantined++
		e.lastQuar = q
		return RoundOutcome{Quarantined: q}
	}
	e.ring[e.ringNext] = rc
	e.ringNext = (e.ringNext + 1) % len(e.ring)
	if e.ringLen < len(e.ring) {
		e.ringLen++
	}
	return RoundOutcome{Served: true, Cost: rc}
}

// safeServe converts an algorithm panic into an error: one bad round must
// not take the serving process down, and because replay re-runs the same
// deterministic round against the same state, a quarantined round stays
// quarantined on recovery — the ledger remains bit-identical.
func (e *Engine) safeServe(d cost.Demand) (rc sim.RoundCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("algorithm panic: %v", r)
		}
	}()
	return e.stream.Serve(d)
}

// Cursor returns the number of entries applied — the WAL position a
// checkpoint records.
func (e *Engine) Cursor() int { return e.cursor }

// Round returns the next round index.
func (e *Engine) Round() int { return e.stream.Round() }

// Quarantined returns the number of quarantined rounds.
func (e *Engine) Quarantined() int { return e.quarantined }

// LastQuarantine returns the most recent quarantined round, nil if none.
func (e *Engine) LastQuarantine() *QuarantineError { return e.lastQuar }

// WindowCount returns the requests folded into the open window.
func (e *Engine) WindowCount() int { return e.windowCount }

// WindowDemand returns the demand folded into the open window so far —
// checkpoint state, so restoration can reopen a half-filled window.
func (e *Engine) WindowDemand() cost.Demand { return e.window.Demand() }

// Placement returns a copy of the current configuration as a plain node
// list (the algorithm keeps mutating its own).
func (e *Engine) Placement() []int {
	p := e.stream.Placement()
	out := make([]int, len(p))
	copy(out, p)
	return out
}

// Totals returns the running cost breakdown.
func (e *Engine) Totals() sim.Breakdown { return e.stream.Ledger().Totals }

// RecentRounds returns the rolling window of served rounds, oldest first.
func (e *Engine) RecentRounds() []sim.RoundCost {
	out := make([]sim.RoundCost, 0, e.ringLen)
	start := e.ringNext - e.ringLen
	if start < 0 {
		start += len(e.ring)
	}
	for i := 0; i < e.ringLen; i++ {
		out = append(out, e.ring[(start+i)%len(e.ring)])
	}
	return out
}

// Stream exposes the underlying stream (read-only use).
func (e *Engine) Stream() *sim.Stream { return e.stream }

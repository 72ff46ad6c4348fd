package runner

import (
	"sort"
	"sync"
	"time"
)

// The adaptive response deadline's constants. A worker that crashes is
// detected immediately (the connection errors), but a wedged-but-alive
// worker — stuck in a loop, swapping, or on the far side of a half-open TCP
// connection — produces no such signal; the response deadline converts it
// into the same retire/requeue path a crash takes.
const (
	// deadlineFloor is the minimum adaptive deadline.
	deadlineFloor = 30 * time.Second
	// deadlineMult scales the observed p95 cell wall-clock.
	deadlineMult = 10
)

// deadlineMinObs is how many completed cells the adaptive deadline needs
// before it trusts the p95: with fewer observations the tracker returns the
// generous bootstrap instead, so the very first cells of an expensive grid —
// for which no timing history exists yet — are never killed by a deadline
// tuned to nothing.
const deadlineMinObs = 5

// deadlineBootstrap is the deadline used until deadlineMinObs cells have
// completed (unless a fixed deadline is configured). A wedge during the
// bootstrap window still converts into a requeue, just slowly.
const deadlineBootstrap = 10 * time.Minute

// deadlineWindow bounds the tracker's sample to the most recent completed
// cells. A sliding window keeps the per-cell insert cost constant no matter
// how long the run is, and it makes the p95 track the cells being evaluated
// *now* — cell cost typically grows along a figure's x axis (bigger
// networks, more rounds), and an all-history quantile would hold the
// deadline down at the cheap early cells' level.
const deadlineWindow = 512

// deadlineTracker derives the per-cell response deadline from observed cell
// wall-clock: max(floor, mult × p95 of the last deadlineWindow cells), or
// fixed when that is positive (Config.Deadline). Durations are kept sorted
// so the quantile read is O(1); inserts are bounded by the window size.
type deadlineTracker struct {
	fixed, floor time.Duration
	mult         float64

	mu   sync.Mutex
	durs []time.Duration // sorted ascending, ≤ deadlineWindow entries
	ring []time.Duration // the same durations in arrival order
	next int             // ring slot the next observation evicts
}

func newDeadlineTracker(fixed time.Duration) *deadlineTracker {
	return &deadlineTracker{fixed: fixed, floor: deadlineFloor, mult: deadlineMult}
}

// Observe records one successful cell's coordinator-side wall-clock (send
// to response, transport included — that is the quantity the deadline
// bounds).
func (t *deadlineTracker) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < deadlineWindow {
		t.ring = append(t.ring, d)
	} else {
		// Window full: the oldest observation leaves the sorted sample
		// before the new one enters.
		old := t.ring[t.next]
		j := sort.Search(len(t.durs), func(i int) bool { return t.durs[i] >= old })
		t.durs = append(t.durs[:j], t.durs[j+1:]...)
		t.ring[t.next] = d
		t.next = (t.next + 1) % deadlineWindow
	}
	i := sort.Search(len(t.durs), func(i int) bool { return t.durs[i] >= d })
	t.durs = append(t.durs, 0)
	copy(t.durs[i+1:], t.durs[i:])
	t.durs[i] = d
}

// Current returns the deadline to apply to the next cell.
func (t *deadlineTracker) Current() time.Duration {
	if t.fixed > 0 {
		return t.fixed
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.durs) < deadlineMinObs {
		return max(t.floor, deadlineBootstrap)
	}
	// p95 by the nearest-rank method on the sorted sample.
	rank := (95*len(t.durs) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return max(t.floor, time.Duration(t.mult*float64(t.durs[rank-1])))
}

// Observations reports how many cell durations the tracker has seen.
func (t *deadlineTracker) Observations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs)
}

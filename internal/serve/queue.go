package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultQueueCap bounds the ingest queue.
const DefaultQueueCap = 1024

// DefaultShedFraction is the occupancy above which non-critical classes
// are shed.
const DefaultShedFraction = 0.75

// ErrDraining refuses admission on a draining server (503 on the wire).
var ErrDraining = errors.New("serve: draining, not admitting")

// OverloadError refuses admission under load (429 on the wire): either the
// queue passed the shed threshold and the request's class is not critical,
// or the queue is completely full.
type OverloadError struct {
	Class Class
	Full  bool // queue hard-full (even critical requests are refused)
}

func (o *OverloadError) Error() string {
	if o.Full {
		return fmt.Sprintf("serve: ingest queue full, %s request shed", o.Class)
	}
	return fmt.Sprintf("serve: over shed threshold, non-critical %s request shed", o.Class)
}

// queued is one queue element: the entry plus its admission time, which
// becomes the request's sojourn-latency sample when its round is served.
type queued struct {
	e  Entry
	at time.Time
}

// IngestQueue is the bounded admission queue between the HTTP front and
// the single consuming engine goroutine. Admission, WAL append, and
// enqueue happen under one lock, so queue order equals WAL order equals
// application order — the invariant recovery depends on. Ticks bypass the
// capacity bound (they carry no load; refusing them would stall rounds).
type IngestQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queued
	head   int // first live element; the prefix is compacted away
	reqs   int // queued arrival entries (ticks excluded) counted against cap
	cap    int
	shedAt int
	closed bool

	admitted [numClasses]uint64
	shed     [numClasses]uint64
}

// NewIngestQueue builds a queue. capacity <= 0 selects DefaultQueueCap;
// shedFraction outside (0, 1] selects DefaultShedFraction.
func NewIngestQueue(capacity int, shedFraction float64) *IngestQueue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	if shedFraction <= 0 || shedFraction > 1 {
		shedFraction = DefaultShedFraction
	}
	shedAt := int(shedFraction * float64(capacity))
	if shedAt < 1 {
		shedAt = 1
	}
	q := &IngestQueue{cap: capacity, shedAt: shedAt, items: make([]queued, 0, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Admit applies the admission policy to one arrival and, when admitted,
// runs persist (the WAL append) and enqueues — all under the queue lock.
// It returns ErrDraining on a closed queue and *OverloadError on a shed.
func (q *IngestQueue) Admit(r Request, now time.Time, persist func(Entry) error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if q.reqs >= q.cap {
		q.shed[r.Class]++
		return &OverloadError{Class: r.Class, Full: true}
	}
	if r.Class != Critical && q.reqs >= q.shedAt {
		q.shed[r.Class]++
		return &OverloadError{Class: r.Class}
	}
	if err := q.push(ArrivalEntry(r), now, persist); err != nil {
		return err
	}
	q.admitted[r.Class]++
	q.reqs++
	return nil
}

// Tick enqueues a round boundary, bypassing the capacity bound. On a
// closed queue it is a no-op (the drain already flushed what it will).
func (q *IngestQueue) Tick(now time.Time, persist func(Entry) error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	return q.push(TickEntry(), now, persist)
}

// push runs persist on e and enqueues it; the caller holds q.mu.
func (q *IngestQueue) push(e Entry, now time.Time, persist func(Entry) error) error {
	if persist != nil {
		if err := persist(e); err != nil {
			return err
		}
	}
	q.items = append(q.items, queued{e: e, at: now})
	q.cond.Signal()
	return nil
}

// Pop blocks until an entry is available or the queue is closed and
// empty. It returns ok == false only when the queue is drained for good.
func (q *IngestQueue) Pop() (queued, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return queued{}, false
	}
	item := q.items[q.head]
	q.items[q.head] = queued{} // release the entry for GC
	q.head++
	if !item.e.Tick {
		q.reqs--
	}
	// Reclaim the consumed prefix so an always-busy queue cannot grow its
	// backing array without bound.
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= 1024 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return item, true
}

// Close stops admission; Pop keeps returning the already-admitted entries
// (they are in the WAL — the drain must apply them) and then reports done.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Depth returns the queued arrival count (ticks excluded).
func (q *IngestQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.reqs
}

// Counters returns per-class admitted and shed totals.
func (q *IngestQueue) Counters() (admitted, shed [numClasses]uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.admitted, q.shed
}

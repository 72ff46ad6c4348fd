package serve

import (
	"slices"
	"sync"
	"time"

	"repro/internal/sim"
)

// latencyWindow is the sliding sample window per class for percentile
// estimation.
const latencyWindow = 2048

// latRing is a fixed-size sliding window of sojourn-latency samples.
type latRing struct {
	buf  [latencyWindow]int64 // nanoseconds
	next int
	n    int
}

func (r *latRing) add(d time.Duration) {
	r.buf[r.next] = int64(d)
	r.next = (r.next + 1) % latencyWindow
	if r.n < latencyWindow {
		r.n++
	}
}

// samples returns a copy of the window's samples, in no order.
func (r *latRing) samples() []int64 {
	return slices.Clone(r.buf[:r.n])
}

// nearestRanks sorts samples in place and returns their p50, p90 and p99
// by the nearest-rank method, all 0 with no samples.
func nearestRanks(samples []int64) (p [3]time.Duration) {
	n := len(samples)
	if n == 0 {
		return p
	}
	slices.Sort(samples)
	for i, q := range [3]float64{0.50, 0.90, 0.99} {
		rank := min(max(int(q*float64(n)+0.5)-1, 0), n-1)
		p[i] = time.Duration(samples[rank])
	}
	return p
}

// Metrics aggregates the serving-side observables: per-class served
// counters and sojourn-latency percentiles (admission to round-served,
// the latency an SLO bounds), round/quarantine counts, and checkpoint
// health. Admission and shed counters live in the IngestQueue; snapshots
// merge both.
type Metrics struct {
	mu          sync.Mutex
	served      [numClasses]uint64
	quarantined [numClasses]uint64 // requests dropped with a quarantined round
	lat         [numClasses]latRing

	rounds          uint64
	quarantineCount uint64
	ticks           uint64
	ckptOK          uint64
	ckptFailed      uint64
	replayed        uint64 // rounds reconstructed from the WAL on restart
}

// ObserveServed records one admitted batch served in a round.
func (m *Metrics) ObserveServed(c Class, count int, sojourn time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.served[c] += uint64(count)
	m.lat[c].add(sojourn)
}

// ObserveQuarantined records one admitted batch dropped by a quarantined
// round.
func (m *Metrics) ObserveQuarantined(c Class, count int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quarantined[c] += uint64(count)
}

// ObserveRound records a round outcome.
func (m *Metrics) ObserveRound(o RoundOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o.Served {
		m.rounds++
	} else if o.Quarantined != nil {
		m.quarantineCount++
	}
}

// ObserveTick counts a round boundary tick.
func (m *Metrics) ObserveTick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ticks++
}

// ObserveCheckpoint records a checkpoint attempt.
func (m *Metrics) ObserveCheckpoint(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.ckptOK++
	} else {
		m.ckptFailed++
	}
}

// ObserveReplay records rounds reconstructed during recovery.
func (m *Metrics) ObserveReplay(rounds int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replayed += uint64(rounds)
}

// ClassStats is one class's slice of a metrics snapshot.
type ClassStats struct {
	Admitted    uint64  `json:"admitted"`
	Shed        uint64  `json:"shed"`
	Served      uint64  `json:"served"`
	Quarantined uint64  `json:"quarantined"`
	P50Millis   float64 `json:"p50_ms"`
	P90Millis   float64 `json:"p90_ms"`
	P99Millis   float64 `json:"p99_ms"`
}

// Snapshot is the JSON shape of GET /metrics.
type Snapshot struct {
	Rounds             uint64                `json:"rounds"`
	QuarantinedRound   uint64                `json:"quarantined_rounds"`
	Ticks              uint64                `json:"ticks"`
	ReplayedRounds     uint64                `json:"replayed_rounds"`
	QueueDepth         int                   `json:"queue_depth"`
	WindowFill         int                   `json:"window_fill"`
	CheckpointsOK      uint64                `json:"checkpoints_ok"`
	CheckpointsFail    uint64                `json:"checkpoints_failed"`
	Totals             sim.Breakdown         `json:"totals"`
	TotalCost          float64               `json:"total_cost"`
	RecentCostPerRound float64               `json:"recent_cost_per_round"`
	Placement          []int                 `json:"placement"`
	Classes            map[string]ClassStats `json:"classes"`
}

// engineSnapshot reads the engine fields of a snapshot; the caller holds
// the lock that serializes Engine.Apply.
func engineSnapshot(e *Engine) Snapshot {
	totals := e.Totals()
	recent := e.RecentRounds()
	perRound := 0.0
	if len(recent) > 0 {
		sum := 0.0
		for _, rc := range recent {
			sum += rc.Total()
		}
		perRound = sum / float64(len(recent))
	}
	return Snapshot{
		WindowFill:         e.WindowCount(),
		Totals:             totals,
		TotalCost:          totals.Total(),
		RecentCostPerRound: perRound,
		Placement:          e.Placement(),
	}
}

// snapshot completes snap, which holds the engine fields, with the
// metrics and queue counters. The latency windows are copied under m.mu
// and each class's copy is sorted once, after m.mu is released.
func (m *Metrics) snapshot(q *IngestQueue, snap Snapshot) Snapshot {
	admitted, shed := q.Counters()
	var (
		stats   [numClasses]ClassStats
		samples [numClasses][]int64
	)
	m.mu.Lock()
	for _, c := range Classes() {
		stats[c] = ClassStats{
			Admitted:    admitted[c],
			Shed:        shed[c],
			Served:      m.served[c],
			Quarantined: m.quarantined[c],
		}
		samples[c] = m.lat[c].samples()
	}
	snap.Rounds = m.rounds
	snap.QuarantinedRound = m.quarantineCount
	snap.Ticks = m.ticks
	snap.ReplayedRounds = m.replayed
	snap.CheckpointsOK = m.ckptOK
	snap.CheckpointsFail = m.ckptFailed
	m.mu.Unlock()

	snap.QueueDepth = q.Depth()
	snap.Classes = make(map[string]ClassStats, numClasses)
	for _, c := range Classes() {
		p := nearestRanks(samples[c])
		stats[c].P50Millis = float64(p[0]) / 1e6
		stats[c].P90Millis = float64(p[1]) / 1e6
		stats[c].P99Millis = float64(p[2]) / 1e6
		snap.Classes[c.String()] = stats[c]
	}
	return snap
}

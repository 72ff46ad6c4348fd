package runner

import (
	"math/rand"
	"time"
)

// backoffConfig is the exponential-backoff-with-jitter schedule the pool
// applies between a slot's re-dials and a remote worker applies between
// reconnect attempts. It keeps a crash-looping worker binary from spinning
// the coordinator: consecutive failures space out geometrically (doubling
// from base) up to max, and the jitter keeps a fleet of workers (or slots)
// that failed together from retrying in lockstep: a delay d becomes
// d·(1 − jitter/2 + jitter·u) for uniform u ∈ [0,1).
type backoffConfig struct {
	base, max time.Duration
	jitter    float64
}

// defaultBackoff is the production schedule: 100ms doubling to 10s, each
// delay spread over ±25%.
var defaultBackoff = backoffConfig{base: 100 * time.Millisecond, max: 10 * time.Second, jitter: 0.5}

// backoff tracks one failure streak. Not safe for concurrent use; every
// worker slot and every remote worker owns its own.
type backoff struct {
	cfg     backoffConfig
	attempt int
	uniform func() float64 // jitter source; injectable for deterministic tests
}

// newBackoff starts a streak on cfg, the zero value selecting
// defaultBackoff.
func newBackoff(cfg backoffConfig, uniform func() float64) *backoff {
	if cfg == (backoffConfig{}) {
		cfg = defaultBackoff
	}
	if uniform == nil {
		uniform = rand.Float64 //repcheck:allow-wallclock reconnect jitter must differ across workers; results never depend on it
	}
	return &backoff{cfg: cfg, uniform: uniform}
}

// Next returns the delay before the next attempt and advances the streak.
func (b *backoff) Next() time.Duration {
	d := b.cfg.base
	for i := 0; i < b.attempt && d < b.cfg.max; i++ {
		d *= 2
	}
	d = min(d, b.cfg.max)
	b.attempt++
	if j := b.cfg.jitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j/2 + j*b.uniform()))
	}
	return d
}

// Reset ends the failure streak: the next delay starts from base again.
// Called once a worker proves healthy (a spawned process completes a cell, a
// reconnected worker holds a session).
func (b *backoff) Reset() { b.attempt = 0 }

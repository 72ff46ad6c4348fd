package serve

import (
	"testing"
	"time"
)

// TestMetricsPercentiles pins the nearest-rank p50/p90/p99 that GET
// /metrics reports for an empty latency window, a partly filled one, and
// one that has wrapped past latencyWindow samples (only the newest
// latencyWindow count).
func TestMetricsPercentiles(t *testing.T) {
	cases := []struct {
		name    string
		samples []int // milliseconds, in arrival order
		want    [3]float64
	}{
		{"empty", nil, [3]float64{0, 0, 0}},
		{"partial", []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{5, 9, 10}},
		{"wrapped", countUp(1, 3000), [3]float64{1976, 2795, 2980}}, // window holds 953..3000
	}
	for _, c := range cases {
		var m Metrics
		for _, ms := range c.samples {
			m.ObserveServed(Standard, 1, time.Duration(ms)*time.Millisecond)
		}
		got := m.snapshot(NewIngestQueue(0, 0), Snapshot{}).Classes[Standard.String()]
		if p := [3]float64{got.P50Millis, got.P90Millis, got.P99Millis}; p != c.want {
			t.Errorf("%s: p50/p90/p99 = %v ms, want %v", c.name, p, c.want)
		}
		if got.Served != uint64(len(c.samples)) {
			t.Errorf("%s: served = %d, want %d", c.name, got.Served, len(c.samples))
		}
	}
}

// countUp returns lo, lo+1, ..., hi.
func countUp(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

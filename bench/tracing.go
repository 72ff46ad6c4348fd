package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/sim"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one HTTP request carry its request id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return float64(sp.End-sp.Start) / 1e9
}

// record adds a finished span, for calls timed by their caller.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
}

// slowRow separates a Row call that ran a Dijkstra (a sparse-cache miss)
// from one served out of a cache.
const slowRow = 10 * time.Microsecond

// countingMetric counts and times the Row calls a traced run makes into the
// graph layer. Row may be called from several goroutines at once.
type countingMetric struct {
	graph.Metric
	calls, slow, nanos atomic.Int64
}

func (c *countingMetric) Row(u int) []float64 {
	start := time.Now()
	row := c.Metric.Row(u)
	d := time.Since(start)
	c.calls.Add(1)
	c.nanos.Add(int64(d))
	if d >= slowRow {
		c.slow.Add(1)
	}
	return row
}

// tracedAlg times the calls sim.Stream makes into an algorithm. The
// workloads' algorithms (ONTH, WFA, ONCONF, OPT) implement no optional
// sim interface a batch Stream consults, so the wrapper changes no code
// path.
type tracedAlg struct {
	sim.Algorithm
	tr     *tracer
	parent int     // span the next call nests under
	inner  float64 // seconds in Prepare+Observe since parent was set
	reset  float64
	obs    []float64 // seconds per Observe
}

func (a *tracedAlg) Reset(env *sim.Env) error {
	id := a.tr.begin(a.Name()+".Reset", a.parent)
	err := a.Algorithm.Reset(env)
	a.reset += a.tr.end(id)
	return err
}

func (a *tracedAlg) Prepare(t int) core.Delta {
	id := a.tr.begin(a.Name()+".Prepare", a.parent)
	d := a.Algorithm.Prepare(t)
	a.inner += a.tr.end(id)
	return d
}

func (a *tracedAlg) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	id := a.tr.begin(a.Name()+".Observe", a.parent)
	delta := a.Algorithm.Observe(t, d, access)
	s := a.tr.end(id)
	a.inner += s
	a.obs = append(a.obs, s)
	return delta
}

// layerOf buckets a profiled function by the repository package it belongs
// to: "graph" for repro/internal/graph and its subpackages, "runtime" for
// the Go runtime (scheduler, GC), "other" for everything else.
func layerOf(fn string) string {
	const mod = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, mod):
		rest := fn[len(mod):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/"):
		return "runtime"
	default:
		return "other"
	}
}

// addProfile adds the flat CPU nanoseconds of a gzipped pprof CPU profile
// to flat, by layerOf of each sample's leaf function — the numbers
// `go tool pprof -top` prints, summed per package.
func addProfile(path string, flat map[string]int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	type sample struct {
		leaf  uint64
		nanos int64
	}
	var (
		samples []sample
		strs    []string
		leafFn  = map[uint64]uint64{} // location id → innermost function id
		fnName  = map[uint64]uint64{} // function id → string-table index
	)
	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var locs, vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err == nil && len(locs) > 0 && len(vals) > 0 {
				// The last value of a CPU profile sample is its CPU time.
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
			return err
		case 4:
			var id, fn uint64
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && first: // lines run innermost first
					first = false
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, s := range samples {
		name := ""
		if i := fnName[leafFn[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		flat[layerOf(name)] += s.nanos
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing each field's
// number with its varint value (wire type 0) or payload (wire type 2);
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one element of a repeated varint field, which the
// encoder writes either unpacked (v) or packed (payload).
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}

package cost

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ConfSweep charges every configuration of an enumerated placement space
// with one round's access cost in a single batched pass. The generic
// algorithms (ONCONF and the work-function baseline WFA) need
// Access(γ, σt) for *every* configuration γ every round; calling
// Evaluator.Access once per configuration repays the per-call session and
// offset-staging overhead |configs| times and re-reads each demand node's
// distance row once per configuration.
//
// The sweep restructures that loop:
//
//   - All round-invariant data is hoisted into NewConfSweep: the
//     configurations are flattened into one contiguous node list with
//     per-config offsets, every node's routing offset and strength are
//     staged once, and each configuration is linked to its *parent* — the
//     configuration equal to it minus its largest node. Placement spaces
//     produced by core.EnumeratePlacements list every parent before its
//     extensions, so almost every configuration has one.
//   - Sweep then iterates demand pairs in the outer loop and
//     configurations in the inner loop, so each pair's distance row is
//     read once and shared across all configurations, and the minimum
//     effective distance of a configuration is derived from its parent's
//     in O(1) (compare the one appended server) instead of rescanning all
//     its servers. Configurations without a cached parent (the singletons,
//     and arbitrary non-DFS spaces) fall back to the full scan.
//   - Large sweeps fan out across GOMAXPROCS goroutines over contiguous
//     configuration ranges; a parent outside the worker's range falls
//     back to the full scan, so the results are independent of the worker
//     count.
//
// The arithmetic is exactly Evaluator.Access's: the per-pair minimisation
// visits servers in the same order with the same tie-break, latency and
// per-server volume accumulate in the same order, and the load pass sums
// server loads in placement order. Sweep output is therefore bit-identical
// to the per-config Access loop it replaces (TestConfSweepMatchesNaive).
//
// A ConfSweep is not safe for concurrent use; each algorithm instance owns
// one. All scratch is preallocated, so steady-state Sweep calls are
// allocation-free.
type ConfSweep struct {
	e   *Evaluator
	sep bool

	nodes    []int   // concatenated per-config server node lists
	off      []int   // config i's nodes are nodes[off[i]:off[i+1]]; len = C+1
	parent   []int32 // index of the config equal to config i minus its last node; -1 if absent
	lastNode []int   // config i's largest (last) server node
	lastSlot []int32 // its slot index within the config

	offNode  []float64 // per-node routing offset (separable fast path)
	strength []float64 // per-node strength
	strSlot  []float64 // per-slot strength (strength[nodes[q]], flattened)
	idleZero []bool    // load.Value(strength(v), 0) is exactly +0.0

	// Per-pair minimisation state, indexed by config.
	bestCost []float64
	bestLat  []float64
	bestSlot []int32
	// Per-round accumulators: latency per config, request volume per
	// server slot (flat, indexed off[i]+slot).
	latAcc []float64
	eta    []float64
	// latOut, when non-nil for the duration of one SweepAccess call,
	// receives each configuration's summed request latency.
	latOut []float64
	// rows[pi] is the distance row of the round's pair pi, pinned once
	// per separable sweep and shared by every worker; pinNodes is the
	// pin's scratch.
	rows     [][]float64
	pinNodes []int
}

// confSweepParallelThreshold is the pairs×configs work below which the
// separable sweep stays on one goroutine.
const confSweepParallelThreshold = 1 << 14

// NewConfSweep precomputes the sweep structure for a fixed configuration
// space. Every configuration must be a non-empty sorted list of distinct
// node ids (the form core.EnumeratePlacements produces).
func NewConfSweep(e *Evaluator, configs [][]int) *ConfSweep {
	s := &ConfSweep{e: e, sep: e.Separable()}
	total := 0
	for _, c := range configs {
		if len(c) == 0 {
			panic("cost: ConfSweep requires non-empty configurations")
		}
		total += len(c)
	}
	C := len(configs)
	s.nodes = make([]int, 0, total)
	s.off = make([]int, C+1)
	s.parent = make([]int32, C)
	index := make(map[string]int32, C)
	var keyBuf []byte
	key := func(c []int) string {
		keyBuf = keyBuf[:0]
		for _, v := range c {
			keyBuf = append(keyBuf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(keyBuf)
	}
	for i, c := range configs {
		s.off[i] = len(s.nodes)
		s.nodes = append(s.nodes, c...)
		s.parent[i] = -1
		if len(c) > 1 {
			if pa, ok := index[key(c[:len(c)-1])]; ok {
				s.parent[i] = pa
			}
		}
		index[key(c)] = int32(i)
	}
	s.off[C] = len(s.nodes)

	n := e.g.N()
	s.offNode = make([]float64, n)
	s.strength = make([]float64, n)
	s.idleZero = make([]bool, n)
	for v := 0; v < n; v++ {
		s.offNode[v] = e.effMarginal(v)
		s.strength[v] = e.g.Strength(v)
		s.idleZero[v] = math.Float64bits(e.load.Value(s.strength[v], 0)) == 0
	}
	s.lastNode = make([]int, C)
	s.lastSlot = make([]int32, C)
	s.strSlot = make([]float64, total)
	for i := 0; i < C; i++ {
		s.lastNode[i] = s.nodes[s.off[i+1]-1]
		s.lastSlot[i] = int32(s.off[i+1] - 1 - s.off[i])
	}
	for q, v := range s.nodes {
		s.strSlot[q] = s.strength[v]
	}

	s.bestCost = make([]float64, C)
	s.bestLat = make([]float64, C)
	s.bestSlot = make([]int32, C)
	s.latAcc = make([]float64, C)
	s.eta = make([]float64, total)
	return s
}

// Len returns the number of configurations in the sweep.
func (s *ConfSweep) Len() int { return len(s.off) - 1 }

// Config returns configuration i's server nodes. The slice is owned by the
// sweep and must not be modified.
func (s *ConfSweep) Config(i int) []int { return s.nodes[s.off[i]:s.off[i+1]] }

// Sweep writes Access(configs[i], d).Total() into out[i] for every
// configuration, bit-identical to calling Evaluator.Access per config.
func (s *ConfSweep) Sweep(d Demand, out []float64) {
	s.SweepAccess(d, out, nil)
}

// SweepAccess is Sweep with the latency term reported separately: when
// latency is non-nil it receives Access(configs[i], d).Latency, letting
// callers apply AccessCost's infeasibility test (latency at or beyond
// graph.Infinity), which WFA's task costs need. latency must be nil or of
// the same length as out.
func (s *ConfSweep) SweepAccess(d Demand, out, latency []float64) {
	C := s.Len()
	if len(out) != C || (latency != nil && len(latency) != C) {
		panic(fmt.Sprintf("cost: Sweep output lengths %d/%d for %d configurations", len(out), len(latency), C))
	}
	if d.Empty() {
		for i := range out {
			out[i] = 0
		}
		if latency != nil {
			clear(latency)
		}
		return
	}
	work := len(d.Pairs()) * C
	if !s.sep {
		work = d.Total() * C
	}
	s.latOut = latency
	if s.sep {
		s.rows, s.pinNodes = pinPairs(s.e.m, s.rows, s.pinNodes, d.Pairs())
	}
	// The serial path avoids the closure so steady-state sweeps stay
	// allocation-free (TestConfSweepAllocationFree); the parallel path
	// allocates for its goroutines anyway.
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || work < confSweepParallelThreshold {
		s.sweepRange(d, 0, C, out)
	} else {
		ParallelChunks(C, true, func(lo, hi int) {
			s.sweepRange(d, lo, hi, out)
		})
	}
	s.latOut = nil
	clear(s.rows)
}

// ParallelChunks runs fn over contiguous index ranges covering [0, n),
// fanned out across GOMAXPROCS goroutines — or as one serial fn(0, n)
// call when parallel is false or only one worker is available. fn must
// tolerate concurrent invocations on disjoint ranges.
func ParallelChunks(n int, parallel bool, fn func(lo, hi int)) {
	if !parallel {
		fn(0, n)
		return
	}
	ParallelChunksWorkers(n, 0, 1, fn)
}

// ParallelChunksWorkers is ParallelChunks with an explicit worker bound and
// a minimum chunk grain: fn covers [0, n) on at most `workers` goroutines
// (non-positive selects GOMAXPROCS), each spanning at least `grain`
// indexes. The OPT solver and the candidate scans route their fan-outs
// through this so forced serial-vs-parallel parity runs stay expressible
// and all chunking lives in one place.
func ParallelChunksWorkers(n, workers, grain int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if grain > 1 && workers > n/grain {
		workers = n / grain
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sweepRange evaluates configurations [lo, hi) with the kernel matching
// the evaluator's routing regime.
func (s *ConfSweep) sweepRange(d Demand, lo, hi int, out []float64) {
	if s.sep {
		s.separableRange(d, lo, hi, out)
	} else {
		s.genericRange(d, lo, hi, out)
	}
}

// separableRange evaluates configurations [lo, hi) with the closed-form
// routing of accessSeparable, sharing each pair's pinned distance row
// across all configurations of the range and deriving each
// configuration's minimum from its parent's.
func (s *ConfSweep) separableRange(d Demand, lo, hi int, out []float64) {
	off, parent := s.off, s.parent
	nodes, lastNode, lastSlot := s.nodes, s.lastNode, s.lastSlot
	bestCost, bestLat, bestSlot := s.bestCost, s.bestLat, s.bestSlot
	latAcc, eta, offNode := s.latAcc, s.eta, s.offNode
	clear(latAcc[lo:hi])
	clear(eta[off[lo]:off[hi]])
	for pi, p := range d.Pairs() {
		row := s.rows[pi]
		cnt := float64(p.Count)
		for i := lo; i < hi; i++ {
			var bc, bl float64
			var bs int32
			if pa := int(parent[i]); pa >= lo {
				bc, bl, bs = bestCost[pa], bestLat[pa], bestSlot[pa]
				last := lastNode[i]
				if c := row[last] + offNode[last]; c < bc {
					bc, bl, bs = c, row[last], lastSlot[i]
				}
			} else {
				// Full scan, identical to accessSeparable's loop: strict
				// improvements over MaxFloat64, first index wins ties, and
				// the all-infinite case keeps slot 0.
				o := off[i]
				bc, bl, bs = math.MaxFloat64, row[nodes[o]], 0
				for q := o; q < off[i+1]; q++ {
					v := nodes[q]
					if c := row[v] + offNode[v]; c < bc {
						bc, bl, bs = c, row[v], int32(q-o)
					}
				}
			}
			bestCost[i], bestLat[i], bestSlot[i] = bc, bl, bs
			latAcc[i] += cnt * bl
			eta[off[i]+int(bs)] += cnt
		}
	}
	s.loadPass(lo, hi, out)
	if s.latOut != nil {
		copy(s.latOut[lo:hi], s.latAcc[lo:hi])
	}
}

// loadPass folds the per-server load values into the access totals, in
// placement order per configuration (the order accessSeparable sums them).
// Slots that received no requests contribute the node's idle load; when
// that value is exactly +0.0 the addition cannot change any IEEE-754
// accumulator (the sum starts at +0.0 and +0.0 + -0.0 = +0.0, so it never
// becomes -0.0), and skipping it is bit-identical. The paper's two load
// models are inlined — the expressions are identical to their Value
// methods, so the results are too — which removes the per-slot interface
// call from the hot loop.
func (s *ConfSweep) loadPass(lo, hi int, out []float64) {
	off, eta, latAcc, strSlot := s.off, s.eta, s.latAcc, s.strSlot
	switch s.e.load.(type) {
	case Linear:
		for i := lo; i < hi; i++ {
			sum := 0.0
			for q := off[i]; q < off[i+1]; q++ {
				if e := eta[q]; e != 0 {
					sum += e / strSlot[q]
				}
			}
			out[i] = latAcc[i] + sum
		}
	case Quadratic:
		for i := lo; i < hi; i++ {
			sum := 0.0
			for q := off[i]; q < off[i+1]; q++ {
				if e := eta[q]; e != 0 {
					r := e / strSlot[q]
					sum += r * r
				}
			}
			out[i] = latAcc[i] + sum
		}
	default:
		load, nodes, idleZero := s.e.load, s.nodes, s.idleZero
		for i := lo; i < hi; i++ {
			sum := 0.0
			for q := off[i]; q < off[i+1]; q++ {
				if e := eta[q]; e != 0 || !idleZero[nodes[q]] {
					sum += load.Value(strSlot[q], e)
				}
			}
			out[i] = latAcc[i] + sum
		}
	}
}

// genericRange evaluates configurations [lo, hi) with the full routing
// kernel (greedy per-unit assignment for non-separable loads), one pooled
// session per worker.
func (s *ConfSweep) genericRange(d Demand, lo, hi int, out []float64) {
	ws := s.e.sessions.Get().(*Session)
	for i := lo; i < hi; i++ {
		ac := ws.Access(s.nodes[s.off[i]:s.off[i+1]], d)
		out[i] = ac.Total()
		if s.latOut != nil {
			s.latOut[i] = ac.Latency
		}
	}
	s.e.sessions.Put(ws)
}

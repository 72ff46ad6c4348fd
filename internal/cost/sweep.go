package cost

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// ConfSweep charges every configuration of an enumerated placement space
// with one round's access cost in one batched pass: ONCONF and WFA need
// Access(γ, σt) for *every* configuration γ every round, and a per-config
// Access loop re-reads each demand row once per configuration.
//
// A configuration's parent (itself minus its last node) is, in the DFS
// order of core.EnumeratePlacements, the latest configuration one node
// shorter, and it comes right before its first child. A separable sweep
// walks each worker's range in order with a stack holding, per level, the
// per-pair minima of the latest configuration of that many nodes that the
// next configuration extends. A configuration whose parent is on the stack
// steps once per pair from the parent's minimum, keeping it or taking its
// appended server without a data-dependent branch; any other
// configuration takes the full scan. The same server wins each pair as in
// Evaluator.Access, latency accumulates in pair order, volumes are integer
// sums and loads are summed in placement order, so Sweep is bit-identical
// to per-config Access for any worker count (TestConfSweepMatchesNaive,
// FuzzConfSweep).
//
// A ConfSweep is not safe for concurrent use; each algorithm instance owns
// one. Steady-state serial Sweep calls are allocation-free.
type ConfSweep struct {
	e     *Evaluator
	sep   bool
	batch func(d Demand, lo, hi int, out []float64) // separableRange or genericRange

	nodes  []int  // concatenated per-config server node lists
	off    []int  // config i's nodes are nodes[off[i]:off[i+1]]; len = C+1
	link   []link // per config, its last server, stack levels and parent
	maxLen int    // nodes in the longest configuration

	offNode  []float64 // per-node routing offset (separable path)
	strength []float64 // per-node strength
	idleZero []bool    // load.Value(strength(v), 0) is exactly +0.0

	// latOut receives the latencies during a SweepAccess call; rows[pi] is
	// the row of the round's pair pi, pinned once and shared by workers.
	latOut   []float64
	rows     [][]float64
	pinNodes []int
	scratch  sync.Pool // of *sweepScratch, one per separable worker
}

// link is a configuration's place in the sweep: its last server v, its
// level l (nodes − 1), the stack level it pushes its minima to (l when the
// next configuration extends it, else the spare level maxLen) and its
// parent when that one pushes, else −1.
type link struct {
	v, l, to, pa int32
}

// sweepScratch is a separable worker's state: the stack levels, the
// round's counts and distances, and the volumes of the configuration
// being evaluated (zero between configurations).
type sweepScratch struct {
	lv   [][]minimum // per level, one minimum per pair
	cnt  []float64   // per pair, its request count
	dist []float64   // node v's distance to pair pi at [v·pairs + pi]
	eta  []float64   // per slot, its volume
}

// minimum is a configuration's choice for one pair: the least effective
// distance (latency plus routing offset), its latency and its slot.
type minimum struct {
	cost, lat float64
	slot      int
}

// confSweepParallelThreshold is the pairs×configs work below which the
// separable sweep stays on one goroutine.
const confSweepParallelThreshold = 1 << 14

// NewConfSweep precomputes the sweep structure for a fixed configuration
// space. Every configuration must be a non-empty sorted list of distinct
// node ids (the form core.EnumeratePlacements produces). Under a separable
// evaluator it panics, naming the node, on a routing offset that is
// negative, −0 or NaN: the kernel compares costs by their bit patterns.
// The configurations are copied, so callers pass their own lists, such as
// a []core.Placement, without building a [][]int view of them.
func NewConfSweep[P ~[]int](e *Evaluator, configs []P) *ConfSweep {
	s := &ConfSweep{e: e, sep: e.Separable()}
	s.batch, s.scratch.New = s.genericRange, func() any { return new(sweepScratch) }
	total := 0
	for _, c := range configs {
		if len(c) == 0 {
			panic("cost: ConfSweep requires non-empty configurations")
		}
		total += len(c)
		s.maxLen = max(s.maxLen, len(c))
	}
	C := len(configs)
	s.nodes, s.off, s.link = make([]int, 0, total), make([]int, C+1), make([]link, C)
	// latest[l] is the latest configuration of l nodes. Orders other than
	// DFS may find fewer parents; the prefix check keeps each one genuine.
	latest := slices.Repeat([]int{-1}, s.maxLen+1)
	for i, c := range configs {
		s.off[i] = len(s.nodes)
		s.nodes = append(s.nodes, c...)
		l := len(c) - 1
		s.link[i] = link{v: int32(c[l]), l: int32(l), to: int32(s.maxLen), pa: -1}
		if pa := latest[l]; pa >= 0 && slices.Equal(configs[pa], c[:l]) {
			s.link[i].pa = int32(pa)
		}
		latest[l+1] = i
	}
	s.off[C] = len(s.nodes)
	// A configuration pushes its minima onto the stack when the next one
	// extends it. They stay until a later configuration of the same length
	// pushes, and that one is then the latest of its length, so every
	// child linked to them finds them. A child of a configuration that does
	// not push takes the full scan.
	for i := 1; i < C; i++ {
		if pa := s.link[i].pa; pa == int32(i-1) {
			s.link[pa].to = s.link[pa].l
		}
	}
	for i := range s.link {
		if pa := s.link[i].pa; pa >= 0 && s.link[pa].to == int32(s.maxLen) {
			s.link[i].pa = -1
		}
	}
	if !s.sep {
		return s
	}
	n := e.g.N()
	s.batch, s.offNode, s.strength, s.idleZero = s.separableRange, make([]float64, n), make([]float64, n), make([]bool, n)
	for v := 0; v < n; v++ {
		o := e.effMarginal(v)
		if math.Signbit(o) || math.IsNaN(o) {
			panic(fmt.Sprintf("cost: ConfSweep needs +0 or positive routing offsets, node %d has %v", v, o))
		}
		s.offNode[v], s.strength[v] = o, e.g.Strength(v)
		s.idleZero[v] = math.Float64bits(e.load.Value(s.strength[v], 0)) == 0
	}
	return s
}

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
	C := len(s.off) - 1
	if len(out) != C || (latency != nil && len(latency) != C) {
		panic(fmt.Sprintf("cost: Sweep output lengths %d/%d for %d configurations", len(out), len(latency), C))
	}
	if d.Empty() {
		clear(out)
		clear(latency)
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
		s.batch(d, 0, C, out)
	} else {
		ParallelChunks(C, true, func(lo, hi int) {
			s.batch(d, lo, hi, out)
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
// indexes. The work-function kernel (and through it the OPT solver)
// routes its fan-outs through this so forced serial-vs-parallel parity
// runs stay expressible and all chunking lives in one place.
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

// separableRange evaluates configurations [lo, hi) with the closed-form
// routing of accessSeparable: from the parent's minima when the parent is
// in the range (and so on the stack), by the full scan otherwise.
func (s *ConfSweep) separableRange(d Demand, lo, hi int, out []float64) {
	pairs, w := d.Pairs(), s.scratch.Get().(*sweepScratch)
	np, n := len(pairs), len(s.offNode)
	if cap(w.lv) <= s.maxLen {
		w.lv = make([][]minimum, s.maxLen+1)
	}
	w.lv = w.lv[:s.maxLen+1]
	for l := range w.lv {
		if cap(w.lv[l]) < np {
			w.lv[l] = make([]minimum, np)
		}
		w.lv[l] = w.lv[l][:np]
	}
	w.cnt, w.dist, w.eta = growF(w.cnt, np), growF(w.dist, n*np), growF(w.eta, s.maxLen)
	for pi, p := range pairs {
		w.cnt[pi] = float64(p.Count)
		for v, x := range s.rows[pi][:n] {
			w.dist[v*np+pi] = x
		}
	}
	_, linear := s.e.load.(Linear)
	eta, cnt := w.eta, w.cnt
	for i := lo; i < hi; i++ {
		x := s.link[i]
		var acc float64
		// touched has bit q set when slot q (slots past 62: bit 63) took
		// a pair; d is not empty, so some bit is set.
		var touched uint64
		if x.pa >= int32(lo) {
			src, dst := w.lv[x.l-1], w.lv[x.to]
			col, ov, l := w.dist[int(x.v)*np:][:len(src)], s.offNode[x.v], int(x.l)
			dst, cnt = dst[:len(src)], cnt[:len(src)]
			for pi, pm := range src {
				dist := col[pi]
				c := dist + ov
				lt := lessMask(c, int64(math.Float64bits(pm.cost)))
				lat := pickBits(math.Float64bits(pm.lat), dist, lt)
				slot := pm.slot + (l-pm.slot)&int(lt)
				dst[pi] = minimum{pickBits(math.Float64bits(pm.cost), c, lt), lat, slot}
				acc += cnt[pi] * lat
				eta[slot] += cnt[pi]
				touched |= 1 << min(slot, 63)
			}
		} else {
			acc, touched = s.scan(w, s.nodes[s.off[i]:s.off[i+1]], w.lv[x.to])
		}
		// Loads in placement order. A slot that took no pair adds its idle
		// load, skipped when that is +0.0 (always, for Linear): it cannot
		// change a sum that starts at +0.0.
		sum := 0.0
		if linear {
			cfg := s.nodes[s.off[i]:s.off[i+1]]
			for {
				q := bits.TrailingZeros64(touched)
				if q == 63 {
					for ; q < len(cfg); q++ {
						sum += eta[q] / s.strength[cfg[q]]
						eta[q] = 0
					}
					break
				}
				sum += eta[q] / s.strength[cfg[q]]
				eta[q] = 0
				if touched &= touched - 1; touched == 0 {
					break
				}
			}
		} else {
			for q, v := range s.nodes[s.off[i]:s.off[i+1]] {
				if e := eta[q]; e != 0 || !s.idleZero[v] {
					sum += s.e.load.Value(s.strength[v], e)
				}
				eta[q] = 0
			}
		}
		out[i] = acc + sum
		if s.latOut != nil {
			s.latOut[i] = acc
		}
	}
	s.scratch.Put(w)
}

// scan evaluates cfg with accessSeparable's loop (strict improvements over
// MaxFloat64, first slot on ties), writing its minima to dst and its
// volumes to w.eta; it returns the latency and the touched slots.
func (s *ConfSweep) scan(w *sweepScratch, cfg []int, dst []minimum) (acc float64, touched uint64) {
	np := len(w.cnt)
	for pi, cnt := range w.cnt {
		best := minimum{math.MaxFloat64, w.dist[cfg[0]*np+pi], 0}
		for q, v := range cfg {
			if c := w.dist[v*np+pi] + s.offNode[v]; c < best.cost {
				best = minimum{c, w.dist[v*np+pi], q}
			}
		}
		dst[pi] = best
		acc += cnt * best.lat
		w.eta[best.slot] += cnt
		touched |= 1 << min(best.slot, 63)
	}
	return acc, touched
}

// lessMask is all ones when c < the cost with bit pattern c0, else zero.
// Bits order like the floats as no cost is negative, −0 or NaN: latencies
// and strengths are positive, graph.Infinity is MaxFloat64, and
// NewConfSweep rejects offsets with the sign bit set or NaN.
func lessMask(c float64, c0 int64) int64 {
	return (int64(math.Float64bits(c)) - c0) >> 63
}

// pickBits returns x when mask is all ones, else the float with bits old.
func pickBits(old uint64, x float64, mask int64) float64 {
	return math.Float64frombits(old ^ (old^math.Float64bits(x))&uint64(mask))
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

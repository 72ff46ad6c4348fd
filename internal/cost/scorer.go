package cost

import (
	"math"
	"sync"
)

// Scorer accelerates the single-change candidate searches performed by the
// best-response algorithms (ONBR, ONTH, and their offline variants): given
// a fixed demand and a fixed server placement, it answers "what would the
// access cost be if one server were added, removed, or moved?" in
// O(distinct access points) per candidate instead of a full re-evaluation.
//
// Scores are Costacc totals (latency + load folded into per-request
// effective distances). NewScorer builds an exact scorer when the
// evaluator's closed form applies; NewScorerApprox builds a linearised
// approximation for arbitrary load functions, suitable for *searching*
// candidates whose final cost the caller re-evaluates exactly.
//
// Scorers are pooled: Release returns one to the pool, making steady-state
// construction allocation-free. ApplyAdd commits an accepted addition in
// place, so a greedy loop (OFFSTAT's placement curve) maintains the
// per-access-point best1/best2 structure incrementally instead of
// rebuilding it.
//
// A scorer is safe for concurrent *reads* (Add/Adds/BestAdd/Remove/Move/
// Base); ApplyAdd and Release are not.
type Scorer struct {
	e       *Evaluator
	servers []int
	pairs   []NodeCount
	// rows[pi] is the distance row of pairs[pi].Node, pinned once per
	// build so the candidate loops never go back to the metric; nodes is
	// the scratch the pin reads its node ids from.
	rows  [][]float64
	nodes []int
	// offNode[v] is the routing offset a server at node v would have,
	// precomputed for every substrate node (replaces the per-candidate
	// offset closure of earlier versions).
	offNode []float64
	// Per demand node: the two smallest effective distances over the
	// current servers and the indexes (into servers) achieving them.
	best1, best2 []float64
	arg1, arg2   []int
	baseTotal    float64
}

// scorerPool recycles scorers (and their slices) across epochs.
var scorerPool = sync.Pool{New: func() any { return new(Scorer) }}

// NewScorer builds an exact scorer for the placement, or reports false when
// the closed form does not apply (the caller may then fall back to
// NewScorerApprox or to full Access evaluations). The closed form folds
// load into the per-request effective distance, which is exact only for
// min-cost routing with a separable load function whose idle value f(ω, 0)
// is zero (true for Linear and Power(1)).
func NewScorer(e *Evaluator, servers []int, d Demand) (*Scorer, bool) {
	if e.policy != AssignMinCost || !e.load.Separable() || len(servers) == 0 {
		return nil, false
	}
	return newScorer(e, servers, d, 0), true
}

// NewScorerApprox builds a scorer that linearises the load function around
// the hinted per-server request volume: each server's routing offset is
// Marginal(ω, etaHint). For separable loads with etaHint irrelevant this
// coincides with NewScorer; for steeper loads (e.g. Quadratic) it is a
// search heuristic. It panics on an empty placement.
func NewScorerApprox(e *Evaluator, servers []int, d Demand, etaHint float64) *Scorer {
	if len(servers) == 0 {
		panic("cost: scorer needs at least one server")
	}
	return newScorer(e, servers, d, etaHint)
}

func newScorer(e *Evaluator, servers []int, d Demand, etaHint float64) *Scorer {
	s := scorerPool.Get().(*Scorer)
	s.e = e
	s.servers = append(growI(s.servers, 0), servers...)
	s.pairs = d.Pairs()
	s.rows, s.nodes = pinPairs(e.m, s.rows, s.nodes, s.pairs)
	n := e.g.N()
	s.offNode = growF(s.offNode, n)
	for v := 0; v < n; v++ {
		s.offNode[v] = e.load.Marginal(e.g.Strength(v), etaHint)
	}
	np := d.Distinct()
	s.best1 = growF(s.best1, np)
	s.best2 = growF(s.best2, np)
	s.arg1 = growI(s.arg1, np)
	s.arg2 = growI(s.arg2, np)
	for pi := range s.pairs {
		s.rescanPair(pi)
	}
	s.resum()
	return s
}

// Release returns the scorer to the pool. The scorer must not be used
// afterwards. The pinned rows are dropped, so the pool does not keep them
// alive.
func (s *Scorer) Release() {
	s.e = nil
	s.pairs = nil
	clear(s.rows)
	s.rows = s.rows[:0]
	scorerPool.Put(s)
}

// rescanPair recomputes the two smallest effective distances of one demand
// node by a full scan over the current servers.
func (s *Scorer) rescanPair(pi int) {
	row := s.rows[pi]
	b1, b2 := math.MaxFloat64, math.MaxFloat64
	a1, a2 := -1, -1
	for i, sv := range s.servers {
		c := row[sv] + s.offNode[sv]
		switch {
		case c < b1:
			b1, b2, a1, a2 = c, b1, i, a1
		case c < b2:
			b2, a2 = c, i
		}
	}
	s.best1[pi], s.best2[pi] = b1, b2
	s.arg1[pi], s.arg2[pi] = a1, a2
}

// resum recomputes the base total from best1, in access-point order, so
// ApplyAdd yields bit-identical totals to a fresh build.
func (s *Scorer) resum() {
	total := 0.0
	for pi, p := range s.pairs {
		total += float64(p.Count) * s.best1[pi]
	}
	s.baseTotal = total
}

// Base returns the access score of the unchanged placement.
func (s *Scorer) Base() float64 { return s.baseTotal }

// Servers returns the scorer's current server nodes. The slice is owned by
// the scorer; index i in Move/Remove refers to Servers()[i].
func (s *Scorer) Servers() []int { return s.servers }

// Add returns the access score with one extra server at node v.
func (s *Scorer) Add(v int) float64 {
	offV := s.offNode[v]
	total := 0.0
	for pi, p := range s.pairs {
		c := s.rows[pi][v] + offV
		if b := s.best1[pi]; b < c {
			c = b
		}
		total += float64(p.Count) * c
	}
	return total
}

// Adds writes Add(v) to dst[j-lo] for every target ordinal j in [lo, hi),
// where v = targets[j], or v = j when targets is nil. The loop runs over
// access points outside and targets inside, so each pinned row is read as
// one stream, and every entry is built by Add's expression, comparison
// and access-point summation order: the bits are Add's. Concurrent calls
// into disjoint dst slices are safe.
func (s *Scorer) Adds(targets []int, lo, hi int, dst []float64) {
	dst = dst[:hi-lo]
	clear(dst)
	for pi, p := range s.pairs {
		row, b, cnt := s.rows[pi], s.best1[pi], float64(p.Count)
		if targets == nil {
			row, off := row[lo:hi], s.offNode[lo:hi]
			for j, d := range row {
				c := d + off[j]
				if b < c {
					c = b
				}
				dst[j] += cnt * c
			}
			continue
		}
		for j, v := range targets[lo:hi] {
			c := row[v] + s.offNode[v]
			if b < c {
				c = b
			}
			dst[j] += cnt * c
		}
	}
}

// AddBlock is how many targets BestAdd and the best-response scan price
// per Adds call, so their buffers stay a few kilobytes on the stack
// however large the network.
const AddBlock = 512

// BestAdd returns the node v with occ[v] false that minimises Add(v): the
// first free node in ascending order, replaced only on strict improvement.
// It reports false when every node is occupied. Adds prices the nodes a
// block at a time; occ must have one entry per node.
func (s *Scorer) BestAdd(occ []bool) (int, bool) {
	var buf [AddBlock]float64
	best, bestScore := -1, 0.0
	for lo := 0; lo < len(occ); lo += AddBlock {
		hi := min(lo+AddBlock, len(occ))
		s.Adds(nil, lo, hi, buf[:])
		for j, score := range buf[:hi-lo] {
			if !occ[lo+j] && (best < 0 || score < bestScore) {
				best, bestScore = lo+j, score
			}
		}
	}
	return best, best >= 0
}

// Remove returns the access score with servers[i] removed. It returns +Inf
// when i indexes the only server and demand is non-empty (requests could no
// longer be served).
func (s *Scorer) Remove(i int) float64 {
	if len(s.servers) == 1 {
		if len(s.pairs) == 0 {
			return 0
		}
		return math.Inf(1)
	}
	total := 0.0
	for pi, p := range s.pairs {
		c := s.best1[pi]
		if s.arg1[pi] == i {
			c = s.best2[pi]
		}
		total += float64(p.Count) * c
	}
	return total
}

// Move returns the access score with servers[i] relocated to node v.
func (s *Scorer) Move(i, v int) float64 {
	offV := s.offNode[v]
	total := 0.0
	for pi, p := range s.pairs {
		c := s.best1[pi]
		if s.arg1[pi] == i {
			c = s.best2[pi]
		}
		if cv := s.rows[pi][v] + offV; cv < c {
			c = cv
		}
		total += float64(p.Count) * c
	}
	return total
}

// ApplyAdd commits the addition of a server at node v: best1/best2/arg1
// are updated in O(distinct access points), not rebuilt. The new server
// takes index len(Servers())-1.
func (s *Scorer) ApplyAdd(v int) {
	i := len(s.servers)
	s.servers = append(s.servers, v)
	offV := s.offNode[v]
	for pi := range s.pairs {
		c := s.rows[pi][v] + offV
		switch {
		case c < s.best1[pi]:
			s.best2[pi], s.arg2[pi] = s.best1[pi], s.arg1[pi]
			s.best1[pi], s.arg1[pi] = c, i
		case c < s.best2[pi]:
			s.best2[pi], s.arg2[pi] = c, i
		}
	}
	s.resum()
}

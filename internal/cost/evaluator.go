package cost

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
)

// AccessCost is one round's Costacc split into its two terms from Section
// II-B: the summed request latencies and the summed server loads.
type AccessCost struct {
	Latency float64 // Σ delay(r) over all requests of the round
	Load    float64 // Σ load(v, t) over all server nodes
}

// Total returns Costacc = latency + load.
func (a AccessCost) Total() float64 { return a.Latency + a.Load }

// Infinite reports whether the cost is unbounded (demand with no active
// server to serve it).
func (a AccessCost) Infinite() bool {
	return math.IsInf(a.Latency, 1) || a.Latency == graph.Infinity
}

// InfiniteAccess is the access cost of a round whose requests cannot be
// served.
func InfiniteAccess() AccessCost { return AccessCost{Latency: graph.Infinity} }

// Policy selects how requests are routed to servers.
type Policy int

const (
	// AssignMinCost routes every request to the server of minimal access
	// cost — latency plus the marginal load the request induces — as
	// prescribed by Section II-B. This is the default.
	AssignMinCost Policy = iota
	// AssignNearest ignores load when routing and picks the
	// latency-nearest server. Used by the assignment-policy ablation.
	AssignNearest
)

func (p Policy) String() string {
	switch p {
	case AssignMinCost:
		return "min-cost"
	case AssignNearest:
		return "nearest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Evaluator computes access costs on a fixed substrate. It is safe for
// concurrent use: all model state is read-only after construction, and the
// scratch workspaces handed out by the internal pool are never shared.
type Evaluator struct {
	g      *graph.Graph
	m      graph.Metric
	load   LoadFunc
	policy Policy

	sessions sync.Pool // of *Session, so steady-state Access is allocation-free
}

// NewEvaluator builds an evaluator for the given substrate and load model.
// The metric may be any backend (dense matrix, sparse, landmark); the
// kernels only read distance rows from it, never write them.
func NewEvaluator(g *graph.Graph, m graph.Metric, load LoadFunc, policy Policy) *Evaluator {
	if g.N() != m.N() {
		panic(fmt.Sprintf("cost: metric size %d does not match graph size %d", m.N(), g.N()))
	}
	e := &Evaluator{g: g, m: m, load: load, policy: policy}
	e.sessions.New = func() any { return &Session{e: e} }
	return e
}

// Session is a reusable scratch workspace for access-cost evaluation. A
// session is not safe for concurrent use; Evaluator.Access and the sweep
// hand each call or worker its own from the evaluator's pool, so steady
// state evaluation is allocation-free.
type Session struct {
	e    *Evaluator
	off  []float64 // per-server routing offset (strengths on the greedy path)
	eta  []float64 // per-server request volume
	occ  []bool    // per-node occupancy flags (BestAddition)
	marg []float64 // per-server cached marginal load (greedy router)
	key  []float64 // per-server latency + marginal (greedy router)
	heap []int32   // heap of server indexes ordered by key (greedy router)
	// rows holds the pinned distance rows of one block of access points,
	// nodes their ids (see pinBlock).
	rows  [][]float64
	nodes []int
}

// pinBlock is how many access points' rows an Access evaluation pins at
// a time: one Metric.Pin per block instead of one Row per pair, while the
// rows held beyond a sparse backend's cache stay bounded for demands with
// many distinct access points.
const pinBlock = 16

// pinNext pins the rows of the next block of pairs, starting at pairs[lo],
// into s.rows and returns the block.
func (s *Session) pinNext(pairs []NodeCount, lo int) []NodeCount {
	block := pairs[lo:min(lo+pinBlock, len(pairs))]
	s.rows, s.nodes = pinPairs(s.e.m, s.rows, s.nodes, block)
	return block
}

// Access is Evaluator.Access evaluated in this session's scratch space.
func (s *Session) Access(servers []int, d Demand) AccessCost {
	if d.Empty() {
		return AccessCost{}
	}
	if len(servers) == 0 {
		return InfiniteAccess()
	}
	if s.e.Separable() {
		return s.accessSeparable(servers, d)
	}
	return s.accessGreedy(servers, d)
}

// Graph returns the substrate the evaluator was built for.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Metric returns the latency metric backend.
func (e *Evaluator) Metric() graph.Metric { return e.m }

// Load returns the load function.
func (e *Evaluator) Load() LoadFunc { return e.load }

// Policy returns the routing policy.
func (e *Evaluator) Policy() Policy { return e.policy }

// Separable reports whether the closed-form fast path applies: separable
// load function under min-cost routing, or any load function under
// nearest routing (where routing never depends on load).
func (e *Evaluator) Separable() bool {
	return e.policy == AssignNearest || e.load.Separable()
}

// Access returns Costacc for serving demand d with active servers at the
// given nodes. Server nodes must be distinct; a node hosts at most one
// server of the service. An empty server set can serve only empty demand.
func (e *Evaluator) Access(servers []int, d Demand) AccessCost {
	ws := e.sessions.Get().(*Session)
	ac := ws.Access(servers, d)
	e.sessions.Put(ws)
	return ac
}

// effMarginal returns the routing offset of a server: the (constant)
// marginal load under min-cost routing, zero under nearest routing.
func (e *Evaluator) effMarginal(server int) float64 {
	if e.policy == AssignNearest {
		return 0
	}
	return e.load.Marginal(e.g.Strength(server), 0)
}

// accessSeparable exploits that the request-to-server choice decomposes:
// every request independently minimises latency + routing offset. Each
// demand node's distances come from one pinned row.
func (s *Session) accessSeparable(servers []int, d Demand) AccessCost {
	e := s.e
	s.off = growF(s.off, len(servers))
	s.eta = growF(s.eta, len(servers))
	off, eta := s.off, s.eta
	for i, sv := range servers {
		off[i] = e.effMarginal(sv)
	}
	clear(eta)
	var ac AccessCost
	pairs := d.Pairs()
	for lo := 0; lo < len(pairs); lo += pinBlock {
		for j, p := range s.pinNext(pairs, lo) {
			row := s.rows[j]
			best, bestCost := 0, math.MaxFloat64
			for i, sv := range servers {
				if c := row[sv] + off[i]; c < bestCost {
					best, bestCost = i, c
				}
			}
			ac.Latency += float64(p.Count) * row[servers[best]]
			eta[best] += float64(p.Count)
		}
	}
	clear(s.rows)
	for i, sv := range servers {
		ac.Load += e.load.Value(e.g.Strength(sv), eta[i])
	}
	return ac
}

// accessGreedy routes one request at a time to the server with minimal
// latency + current marginal load. Requests are processed in ascending
// access-point order, one unit at a time, so the result is deterministic.
// Routing runs through the incremental-key router of router.go (heap-based
// for bulky access points), which picks exactly the servers the plain
// per-unit scan picks.
func (s *Session) accessGreedy(servers []int, d Demand) AccessCost {
	e := s.e
	ns := len(servers)
	s.eta = growF(s.eta, ns)
	s.off = growF(s.off, ns)
	s.marg = growF(s.marg, ns)
	s.key = growF(s.key, ns)
	eta, str := s.eta, s.off // reuse the offset buffer for strengths
	clear(eta)
	for i, sv := range servers {
		str[i] = e.g.Strength(sv)
		s.marg[i] = e.load.Marginal(str[i], 0)
	}
	latency := s.routeGreedy(servers, d)
	var load float64
	for i := range servers {
		load += e.load.Value(str[i], eta[i])
	}
	return AccessCost{Latency: latency, Load: load}
}

// BestAddition returns the node minimising Access(servers ∪ {v}, d) over
// all nodes v not already hosting a server, together with the resulting
// access cost. It is used by ONTH's large-epoch rule ("a new server is
// activated at an optimal position with respect to the access cost of the
// latest large epoch") and by the greedy placement of OFFSTAT. The second
// return is false when no free node exists.
func (e *Evaluator) BestAddition(servers []int, d Demand) (int, AccessCost, bool) {
	ws := e.sessions.Get().(*Session)
	ws.occ = growB(ws.occ, e.g.N())
	for _, s := range servers {
		ws.occ[s] = true
	}
	bestNode, found := -1, false
	if sc, ok := NewScorer(e, servers, d); ok {
		bestNode, found = sc.BestAdd(ws.occ)
		sc.Release()
	} else {
		bestScore := math.MaxFloat64
		cand := make([]int, len(servers)+1)
		copy(cand, servers)
		for v := 0; v < e.g.N(); v++ {
			if ws.occ[v] {
				continue
			}
			cand[len(servers)] = v
			if score := ws.Access(cand, d).Total(); !found || score < bestScore {
				bestNode, bestScore, found = v, score, true
			}
		}
	}
	e.sessions.Put(ws)
	if !found {
		return -1, AccessCost{}, false
	}
	cand := make([]int, 0, len(servers)+1)
	cand = append(cand, servers...)
	cand = append(cand, bestNode)
	return bestNode, e.Access(cand, d), true
}

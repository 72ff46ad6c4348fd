// Package online implements the paper's online allocation strategies
// (Section III): the configuration-counter algorithm ONCONF, its efficient
// sequential best-response variant ONBR (fixed and dynamic threshold), and
// the threshold algorithm ONTH with its small/large epoch structure. All
// three decide without any knowledge of future requests.
//
// The exported BestResponse search is shared with the offline variants
// OFFBR and OFFTH (Section IV-B), which the paper derives from the online
// strategies by scoring the upcoming instead of the passed epoch.
package online

import (
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// SearchMoves describes which single-change candidates a best response may
// consider.
type SearchMoves struct {
	Move       bool // relocate one server to a free node (β)
	Deactivate bool // one server becomes inactive (free)
	Add        bool // activate a cached server or create a new one
	// Targets restricts where servers may be moved to or added; nil allows
	// every node. The clustered variants pass cluster centers here, the
	// "cluster granularity" speed-up of Sections III-A and IV-B.
	Targets []int
}

// EpochScorer builds the candidate scorer for an epoch's aggregated demand:
// the exact closed form when available, otherwise the linearised
// approximation around the epoch's average per-server, per-round volume.
// The scorer is pooled; callers release it after the sweep.
func EpochScorer(env *sim.Env, servers core.Placement, agg cost.Demand, rounds int) *cost.Scorer {
	if s, ok := cost.NewScorer(env.Eval, servers, agg); ok {
		return s
	}
	hint := 0.0
	if len(servers) > 0 && rounds > 0 {
		hint = float64(agg.Total()) / float64(len(servers)*rounds)
	}
	return cost.NewScorerApprox(env.Eval, servers, agg, hint)
}

// parallelScanThreshold is the candidate-count × access-point work below
// which the sweep stays on one goroutine (fan-out overhead would dominate).
const parallelScanThreshold = 1 << 15

// candidateScan scores the single-change candidates of one best-response
// sweep. Candidates are addressed by a dense ordinal so the sweep can be
// chunked across workers while preserving the sequential semantics
// exactly: the winner is the candidate of minimal score, ties broken
// toward the smallest ordinal (= the order the sequential loop visited).
type candidateScan struct {
	sc      *cost.Scorer
	cur     core.Placement
	targets []int // nil means the identity over all n nodes
	n       int
	work    int // per-candidate work estimate (distinct access points)
	occ     []bool
	cached  []bool

	moves, deacts, adds bool

	// Score constants per candidate kind: score = (access + sw) + run,
	// evaluated in exactly that association order. Indexed by whether the
	// entered node holds a cached inactive server.
	moveSw, moveRun   [2]float64
	deactSw, deactRun float64
	addSw, addRun     [2]float64
}

// numTargets returns the size of the move/add target space.
func (c *candidateScan) numTargets() int {
	if c.targets != nil {
		return len(c.targets)
	}
	return c.n
}

// target maps a target ordinal to a substrate node.
func (c *candidateScan) target(j int) int {
	if c.targets != nil {
		return c.targets[j]
	}
	return j
}

// total returns the number of candidate ordinals.
func (c *candidateScan) total() int {
	nt := c.numTargets()
	total := 0
	if c.moves {
		total += len(c.cur) * nt
	}
	if c.deacts {
		total += len(c.cur)
	}
	if c.adds {
		total += nt
	}
	return total
}

// score evaluates one candidate ordinal; +Inf marks inadmissible ones.
func (c *candidateScan) score(ord int) float64 {
	nt := c.numTargets()
	if c.moves {
		if ord < len(c.cur)*nt {
			i, v := ord/nt, c.target(ord%nt)
			if c.occ[v] {
				return math.Inf(1)
			}
			b := b2i(c.cached[v])
			return (c.sc.Move(i, v) + c.moveSw[b]) + c.moveRun[b]
		}
		ord -= len(c.cur) * nt
	}
	if c.deacts {
		if ord < len(c.cur) {
			access := c.sc.Remove(ord)
			if math.IsInf(access, 1) {
				return math.Inf(1)
			}
			return (access + c.deactSw) + c.deactRun
		}
		ord -= len(c.cur)
	}
	v := c.target(ord)
	if c.occ[v] {
		return math.Inf(1)
	}
	b := b2i(c.cached[v])
	return (c.sc.Add(v) + c.addSw[b]) + c.addRun[b]
}

// materialize builds the placement of a winning ordinal.
func (c *candidateScan) materialize(ord int) core.Placement {
	nt := c.numTargets()
	if c.moves {
		if ord < len(c.cur)*nt {
			i, v := ord/nt, c.target(ord%nt)
			return c.cur.Moved(c.cur[i], v)
		}
		ord -= len(c.cur) * nt
	}
	if c.deacts {
		if ord < len(c.cur) {
			return c.cur.Without(c.cur[ord])
		}
		ord -= len(c.cur)
	}
	return c.cur.With(c.target(ord))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run scans all candidates — in parallel for large sweeps — and returns
// the minimal score and its ordinal (-1 when no admissible candidate
// exists). The result is independent of the worker count: each chunk
// reduces to its own (score, ordinal) minimum, and the cross-chunk merge
// is the lexicographic minimum over (score, ordinal), so the winner is the
// candidate of minimal score with ties broken toward the smallest ordinal
// — exactly the sequential scan's answer.
func (c *candidateScan) run() (float64, int) {
	total := c.total()
	if total*c.work < parallelScanThreshold {
		// Small sweeps skip the fan-out entirely: no reduction closure,
		// no mutex — the per-round hot loops of ONBR/ONTH stay
		// allocation-free here.
		return c.scanRange(0, total)
	}
	best, bestOrd := math.Inf(1), -1
	var mu sync.Mutex
	cost.ParallelChunks(total, true, func(lo, hi int) {
		s, o := c.scanRange(lo, hi)
		if o < 0 {
			return
		}
		mu.Lock()
		if s < best || (s == best && o < bestOrd) {
			best, bestOrd = s, o
		}
		mu.Unlock()
	})
	return best, bestOrd
}

// scanRange is the sequential kernel of run over [lo, hi).
func (c *candidateScan) scanRange(lo, hi int) (float64, int) {
	best, bestOrd := math.Inf(1), -1
	for ord := lo; ord < hi; ord++ {
		if s := c.score(ord); s < best {
			best, bestOrd = s, ord
		}
	}
	return best, bestOrd
}

// BestResponse scores the pool's current placement and all allowed
// single-change candidates against an epoch summary (demand aggregated
// over `rounds` rounds) and returns the cheapest target. The score of a
// candidate is
//
//	reconfiguration cost + access score + rounds · predicted running cost,
//
// matching ONBR's "cheapest configuration w.r.t. the passed epoch including
// access, migration, running, and creation cost". Candidates are priced by
// shape (PredictShape) and scanned in parallel; the chosen target is
// identical to the sequential sweep's.
func BestResponse(env *sim.Env, pool *core.Pool, agg cost.Demand, rounds int, moves SearchMoves) core.Placement {
	cur := pool.Active()
	if len(cur) == 0 {
		return cur
	}
	sc := EpochScorer(env, cur, agg, rounds)
	defer sc.Release()

	n := env.Graph.N()
	scan := candidateScan{
		sc:      sc,
		cur:     cur,
		targets: moves.Targets,
		n:       n,
		work:    agg.Distinct() + 1,
		occ:     make([]bool, n),
		cached:  make([]bool, n),
		moves:   moves.Move,
		deacts:  moves.Deactivate && len(cur) > 1,
		adds:    moves.Add && (env.Pool.MaxServers <= 0 || len(cur) < env.Pool.MaxServers),
	}
	for _, s := range cur {
		scan.occ[s] = true
	}
	for _, v := range pool.InactiveNodes() {
		scan.cached[v] = true
	}
	rf := float64(rounds)
	for b := 0; b < 2; b++ {
		d, inact := pool.PredictShape(1, 1, b)
		scan.moveSw[b] = d.Total()
		scan.moveRun[b] = rf * env.Costs.Run(len(cur), inact)
		d, inact = pool.PredictShape(1, 0, b)
		scan.addSw[b] = d.Total()
		scan.addRun[b] = rf * env.Costs.Run(len(cur)+1, inact)
	}
	{
		d, inact := pool.PredictShape(0, 1, 0)
		scan.deactSw = d.Total()
		scan.deactRun = rf * env.Costs.Run(len(cur)-1, inact)
	}

	// Baseline: keep the configuration. A candidate must beat it strictly.
	_, keepInact := pool.PredictShape(0, 0, 0)
	keepScore := sc.Base() + rf*env.Costs.Run(len(cur), keepInact)

	best, bestOrd := scan.run()
	if bestOrd < 0 || best >= keepScore {
		return cur
	}
	return scan.materialize(bestOrd)
}

// base carries the pool plumbing shared by the online strategies, and
// their state snapshots (snapshot.go) through the strategy's field list.
type base struct {
	env   *sim.Env
	pool  *core.Pool
	state func(*codec)
}

func (b *base) reset(env *sim.Env, state func(*codec)) {
	b.env, b.state = env, state
	b.pool = env.NewPool()
	b.pool.Bootstrap(env.Start)
}

// paperFactor returns f when positive, else the paper's factor 2 (ONBR's
// and ONSAMP's θ = 2c, ONTH's small-epoch y = 2).
func paperFactor(f float64) float64 {
	if f > 0 {
		return f
	}
	return 2
}

// epoch is the window an epoch strategy judges when it ends: the cost
// accumulated since it began, its first round and its aggregated demand.
// The thresholds stay with ONBR, ONSAMP and ONTH.
type epoch struct {
	accum float64
	start int
	agg   *cost.Accumulator
}

func newEpoch(n int) epoch { return epoch{agg: cost.NewAccumulator(n)} }

// observe folds one round into the epoch. c is added as one term, so the
// caller's expression fixes the float order of the running sum.
func (e *epoch) observe(d cost.Demand, c float64) {
	e.accum += c
	e.agg.Add(d)
}

// restart opens the next epoch at round start.
func (e *epoch) restart(start int) {
	e.accum, e.start = 0, start
	e.agg.Reset()
}

// rounds returns the epoch's length when it ends with round t.
func (e *epoch) rounds(t int) int { return t - e.start + 1 }

// Placement implements sim.Algorithm.
func (b *base) Placement() core.Placement { return b.pool.Active() }

// Inactive implements sim.Algorithm.
func (b *base) Inactive() int { return b.pool.NumInactive() }

// Prepare implements sim.Algorithm. Online strategies never reconfigure
// before seeing a round's requests.
func (b *base) Prepare(int) core.Delta { return core.Delta{} }

func (b *base) bestResponse(agg cost.Demand, rounds int, moves SearchMoves) core.Placement {
	return BestResponse(b.env, b.pool, agg, rounds, moves)
}

// apply switches the pool to the target and returns the charged delta.
func (b *base) apply(target core.Placement) core.Delta {
	if target.Equal(b.pool.Active()) {
		return core.Delta{}
	}
	d, err := b.pool.SwitchTo(target)
	if err != nil {
		// Candidate generation never proposes empty or over-k placements,
		// so an error here is a programming bug.
		panic(err)
	}
	return d
}

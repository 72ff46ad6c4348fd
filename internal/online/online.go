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
	"slices"

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

// candidateScan scores the single-change candidates of one best-response
// sweep. Candidates are addressed by a dense ordinal (moves, then
// deactivations, then additions): the winner is the candidate of minimal
// score, ties broken toward the smallest ordinal.
//
// The scan visits the targets a block of cost.AddBlock at a time, so its
// scratch lives on the stack however large the network. Scorer.Adds
// prices a block's additions, and that price bounds every move onto the
// same node from below (see run), so Move runs only for the few moves that
// can still win. Blocks and kinds are visited out of ordinal order, so the
// winner is picked by an explicit (score, ordinal) comparison.
type candidateScan struct {
	sc       *cost.Scorer
	cur      core.Placement
	inactive []int // nodes caching an inactive server
	targets  []int // nil means the identity over all n nodes
	n        int

	moves, deacts, addOK bool

	// Score constants per candidate kind: score = (access + sw) + run,
	// evaluated in exactly that association order. Indexed by whether the
	// entered node holds a cached inactive server.
	moveSw, moveRun   [2]float64
	deactSw, deactRun float64
	addSw, addRun     [2]float64
	keepScore         float64 // the kept placement's score; a winner must beat it
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

// occupied marks a target that already hosts an active server; cached
// and free targets index the per-kind score constants.
const occupied = -1

// run scores every admissible candidate and returns the minimal score and
// its ordinal (-1 when no admissible candidate exists; +Inf and NaN
// scores never win). Deactivations go first; then, per block of targets,
// the additions and every server's moves onto the block.
//
// A move's per-access-point term is count·min(c_i, cv) with c_i ∈ {best1,
// best2} and best2 ≥ best1, the addition's is count·min(best1, cv), and
// rounded + and ×count are monotone, so Move(i, v) ≥ Add(v). Priced with
// Add(v), a move is not scored when it could not beat the kept placement,
// or not beat (best, bestOrd) in the (score, ordinal) order. A NaN bound
// compares false and is scored.
func (c *candidateScan) run() (float64, int) {
	best, bestOrd := math.Inf(1), -1
	nt := c.numTargets()
	moveOrds := 0
	if c.moves {
		moveOrds = len(c.cur) * nt
	}
	if c.deacts {
		for i := range c.cur {
			if access := c.sc.Remove(i); !math.IsInf(access, 1) {
				if s, ord := (access+c.deactSw)+c.deactRun, moveOrds+i; s < best || s == best && ord < bestOrd {
					best, bestOrd = s, ord
				}
			}
		}
	}
	if !c.moves && !c.addOK {
		return best, bestOrd
	}
	addOrds := moveOrds
	if c.deacts {
		addOrds += len(c.cur)
	}
	var adds [cost.AddBlock]float64
	var kind [cost.AddBlock]int8
	for lo := 0; lo < nt; lo += cost.AddBlock {
		hi := min(lo+cost.AddBlock, nt)
		c.sc.Adds(c.targets, lo, hi, adds[:])
		for j := lo; j < hi; j++ {
			switch v := c.target(j); {
			case c.cur.Contains(v):
				kind[j-lo] = occupied
			case slices.Contains(c.inactive, v):
				kind[j-lo] = 1
			default:
				kind[j-lo] = 0
			}
		}
		if c.addOK {
			for j := lo; j < hi; j++ {
				b := kind[j-lo]
				if b == occupied {
					continue
				}
				if s, ord := (adds[j-lo]+c.addSw[b])+c.addRun[b], addOrds+j; s < best || s == best && ord < bestOrd {
					best, bestOrd = s, ord
				}
			}
		}
		if !c.moves {
			continue
		}
		for i := range c.cur {
			for j := lo; j < hi; j++ {
				b := kind[j-lo]
				if b == occupied {
					continue
				}
				ord := i*nt + j
				if bound := (adds[j-lo] + c.moveSw[b]) + c.moveRun[b]; bound >= c.keepScore || bound > best || bound == best && ord > bestOrd {
					continue
				}
				if s := (c.sc.Move(i, c.target(j)) + c.moveSw[b]) + c.moveRun[b]; s < best || s == best && ord < bestOrd {
					best, bestOrd = s, ord
				}
			}
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
// shape (PredictShape), and a move runs Move only when its addition bound
// can still win; the chosen target is the one scoring every candidate
// would pick.
func BestResponse(env *sim.Env, pool *core.Pool, agg cost.Demand, rounds int, moves SearchMoves) core.Placement {
	cur := pool.Active()
	if len(cur) == 0 {
		return cur
	}
	sc := EpochScorer(env, cur, agg, rounds)
	defer sc.Release()

	scan := candidateScan{
		sc:       sc,
		cur:      cur,
		inactive: pool.InactiveNodes(),
		targets:  moves.Targets,
		n:        env.Graph.N(),
		moves:    moves.Move,
		deacts:   moves.Deactivate && len(cur) > 1,
		addOK:    moves.Add && (env.Pool.MaxServers <= 0 || len(cur) < env.Pool.MaxServers),
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
	scan.keepScore = sc.Base() + rf*env.Costs.Run(len(cur), keepInact)

	best, bestOrd := scan.run()
	if bestOrd < 0 || best >= scan.keepScore {
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

// Package sim drives the synchronous allocation game of Section II-E: in
// every round t the requests σt arrive at their access points, the
// algorithm pays the access cost to the servers of the current
// configuration plus the configuration's running cost, and then it may
// reconfigure (allocate, remove, activate, deactivate, migrate servers),
// paying migration and creation costs.
//
// Offline algorithms reconfigure *before* serving a round (hook Prepare),
// exactly as in the dynamic program of Section IV-A; online algorithms
// react *after* serving (hook Observe), exactly as in the online game of
// Section II-E. The paper notes the two orderings are equivalent for its
// analysis because one round's requests are much cheaper than a migration.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Env is the immutable world one simulation runs in.
type Env struct {
	Graph  *graph.Graph
	Metric graph.Metric // latency oracle (dense matrix by default)
	Eval   *cost.Evaluator
	Costs  cost.Params
	Pool   core.Params    // queue capacity, expiry, server bound k
	Start  core.Placement // initial configuration γ0 shared by all algorithms
}

// NewEnv assembles an environment with the default dense metric backend:
// all-pairs distances, evaluator, and the paper's default initial
// configuration (one server at the network center).
func NewEnv(g *graph.Graph, load cost.LoadFunc, policy cost.Policy, costs cost.Params, pool core.Params) (*Env, error) {
	return NewEnvMetric(g, nil, load, policy, costs, pool, nil)
}

// NewEnvMetric is NewEnv with an explicit metric backend and optional
// start configuration. A nil metric selects the dense matrix; a nil start
// selects the paper's default, one server at the network center — note the
// exact center scan runs one Row per node, so huge-substrate callers on
// sparse backends pass an explicit start (e.g. core.NewPlacement of
// graph.ApproxCenter) instead. Exact backends (dense, sparse, landmark in
// exact mode) produce identical environments for identical graphs.
func NewEnvMetric(g *graph.Graph, m graph.Metric, load cost.LoadFunc, policy cost.Policy, costs cost.Params, pool core.Params, start core.Placement) (*Env, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = g.Metric()
	}
	if m.N() != g.N() {
		return nil, fmt.Errorf("sim: metric size %d does not match graph size %d", m.N(), g.N())
	}
	if start == nil {
		start = core.NewPlacement(graph.CenterOf(m))
	}
	pool.Costs = costs
	return &Env{
		Graph:  g,
		Metric: m,
		Eval:   cost.NewEvaluator(g, m, load, policy),
		Costs:  costs,
		Pool:   pool,
		Start:  start,
	}, nil
}

// NewPool returns a pool configured for this environment.
func (e *Env) NewPool() *core.Pool {
	return core.NewPool(e.Pool)
}

// Algorithm is a server allocation strategy playing the synchronous game.
type Algorithm interface {
	// Name identifies the strategy in ledgers and reports.
	Name() string
	// Reset discards run state and installs the initial configuration.
	Reset(env *Env) error
	// Placement returns the nodes currently hosting active servers.
	Placement() core.Placement
	// Inactive returns the number of cached inactive servers.
	Inactive() int
	// Prepare runs before round t is served. Offline strategies apply
	// their precomputed reconfiguration here; online strategies must not
	// reconfigure in Prepare (they have not seen σt yet) and typically
	// return the zero Delta.
	Prepare(t int) core.Delta
	// Observe runs after round t was served under the current placement
	// and charged; online strategies reconfigure here.
	Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta
}

// StateSnapshotter is implemented by algorithms whose run state can be
// serialised exactly and restored later: SnapshotState captures every
// mutable bit of the strategy (pool, epoch accumulators, thresholds —
// floats as exact bits, not decimal), and RestoreState, called on a
// freshly Reset algorithm over the identical environment, reinstalls it
// so that the subsequent rounds are bit-identical to a run that never
// stopped. A strategy that draws random numbers (ONCONF) records how many
// draws it made, so its random source must be seeded as the snapshotted
// run's was and not drawn from before RestoreState. The serving layer
// serves only algorithms that implement the interface: every checkpoint
// carries a snapshot, recovery restores the last one and replays the log
// entries after it, and the log segments before it are deleted.
type StateSnapshotter interface {
	// SnapshotState serialises the algorithm's mutable run state.
	SnapshotState() ([]byte, error)
	// RestoreState reinstalls a snapshot taken by the same strategy under
	// the same environment. The receiver must already be Reset.
	RestoreState(data []byte) error
}

// AccessReuser is implemented by algorithms whose own bookkeeping already
// evaluated the access cost of the round about to be served — the offline
// lookahead strategies OFFBR and OFFTH score upcoming rounds under the
// current placement, so when their window did not trigger a switch, the
// driver would re-evaluate exactly what the lookahead just computed. Run
// consults this hook before paying for a fresh evaluation; the returned
// cost must be exactly Eval.Access(p, d) (the ledger is pinned
// bit-identical with the hook on and off). Implementations verify d is
// the demand they scored — not just the round index — so running an
// algorithm against a different sequence than it planned for degrades to
// fresh evaluation instead of corrupting the ledger.
type AccessReuser interface {
	// ReuseAccess returns the access cost of serving demand d in round t
	// under placement p if the algorithm has already computed it, and
	// whether it did.
	ReuseAccess(t int, p core.Placement, d cost.Demand) (cost.AccessCost, bool)
}

// RoundCost is the ledger entry of one round.
type RoundCost struct {
	Latency   float64 // Σ delay(r) of the round's requests
	Load      float64 // Σ load(v, t) over server nodes
	Run       float64 // Costrun of the serving configuration
	Migration float64 // β-costs charged this round
	Creation  float64 // c-costs charged this round
	Active    int     // active servers while serving
	Inactive  int     // cached inactive servers while serving
}

// Total returns the round's summed cost.
func (r RoundCost) Total() float64 {
	return r.Latency + r.Load + r.Run + r.Migration + r.Creation
}

// Breakdown accumulates costs by category.
type Breakdown struct {
	Latency   float64
	Load      float64
	Run       float64
	Migration float64
	Creation  float64
}

// Access returns the summed access cost Costacc.
func (b Breakdown) Access() float64 { return b.Latency + b.Load }

// Total returns the summed overall cost.
func (b Breakdown) Total() float64 {
	return b.Latency + b.Load + b.Run + b.Migration + b.Creation
}

func (b Breakdown) add(r RoundCost) Breakdown {
	b.Latency += r.Latency
	b.Load += r.Load
	b.Run += r.Run
	b.Migration += r.Migration
	b.Creation += r.Creation
	return b
}

// Ledger records one full run.
type Ledger struct {
	Algorithm string
	Scenario  string
	Rounds    []RoundCost
	Totals    Breakdown
}

// Total returns the run's overall cost.
func (l *Ledger) Total() float64 { return l.Totals.Total() }

// MaxActive returns the peak number of active servers over the run.
func (l *Ledger) MaxActive() int {
	max := 0
	for _, r := range l.Rounds {
		if r.Active > max {
			max = r.Active
		}
	}
	return max
}

// Stream plays the synchronous game one round at a time, against demands
// that arrive incrementally instead of as a prebuilt sequence — the core
// the long-running placement service (internal/serve) is built on. Serve
// performs exactly the per-round work the batch driver used to inline, so
// Run, now a thin wrapper over a Stream, produces bit-identical ledgers.
//
// A Stream is not safe for concurrent use; the serving layer owns the
// single goroutine that calls Serve.
type Stream struct {
	env    *Env
	alg    Algorithm
	reuser AccessReuser
	ledger *Ledger
	keep   bool // retain per-round entries in the ledger (batch mode)
	t      int
}

// NewStream resets the algorithm against the environment and returns a
// stream positioned at round 0. scenario names the demand source in the
// ledger (a *workload.Sequence name in batch mode, a stream description in
// serving mode). The ledger retains every RoundCost; long-running callers
// that must not grow memory without bound call DiscardRounds.
func NewStream(env *Env, alg Algorithm, scenario string) (*Stream, error) {
	if err := alg.Reset(env); err != nil {
		return nil, fmt.Errorf("sim: reset %s: %w", alg.Name(), err)
	}
	reuser, _ := alg.(AccessReuser)
	return &Stream{
		env:    env,
		alg:    alg,
		reuser: reuser,
		ledger: &Ledger{Algorithm: alg.Name(), Scenario: scenario},
		keep:   true,
	}, nil
}

// DiscardRounds stops the ledger from retaining per-round entries: Totals
// keep accumulating (in the same order, so they stay bit-identical to a
// retaining run), but Rounds stays empty. For unbounded streams.
func (s *Stream) DiscardRounds() {
	s.keep = false
	s.ledger.Rounds = nil
}

// Round returns the index of the next round Serve will play.
func (s *Stream) Round() int { return s.t }

// Env returns the environment the stream plays in.
func (s *Stream) Env() *Env { return s.env }

// Algorithm returns the strategy under play.
func (s *Stream) Algorithm() Algorithm { return s.alg }

// Placement returns the current configuration.
func (s *Stream) Placement() core.Placement { return s.alg.Placement() }

// Ledger returns the stream's ledger so far. The stream keeps appending to
// it; callers that need a stable snapshot copy what they read.
func (s *Stream) Ledger() *Ledger { return s.ledger }

// RestoreTotals rewinds the stream to a checkpointed position: the next
// Serve plays round `round`, and the running totals continue from the
// given breakdown. It is the stream half of checkpoint restoration — the
// algorithm half goes through StateSnapshotter — and must only be applied
// to a fresh stream over the identical environment.
func (s *Stream) RestoreTotals(round int, totals Breakdown) {
	s.t = round
	s.ledger.Totals = totals
}

// Serve plays one round against demand d: Prepare, access-cost evaluation
// (through the AccessReuser hook when the algorithm already scored the
// round), Observe, and the ledger entry. It fails — without advancing the
// round counter or charging anything — if a round with requests is served
// by a configuration without active servers.
func (s *Stream) Serve(d cost.Demand) (RoundCost, error) {
	t := s.t
	pre := s.alg.Prepare(t)
	placement := s.alg.Placement()
	access, reused := cost.AccessCost{}, false
	if s.reuser != nil {
		access, reused = s.reuser.ReuseAccess(t, placement, d)
	}
	if !reused {
		access = s.env.Eval.Access(placement, d)
	}
	if access.Infinite() {
		return RoundCost{}, fmt.Errorf("sim: %s has no active server for %d requests in round %d", s.alg.Name(), d.Total(), t)
	}
	inactive := s.alg.Inactive()
	post := s.alg.Observe(t, d, access)
	delta := pre.Add(post)
	rc := RoundCost{
		Latency:   access.Latency,
		Load:      access.Load,
		Run:       s.env.Costs.Run(placement.Len(), inactive),
		Migration: delta.Migration,
		Creation:  delta.Creation,
		Active:    placement.Len(),
		Inactive:  inactive,
	}
	if s.keep {
		s.ledger.Rounds = append(s.ledger.Rounds, rc)
	}
	s.ledger.Totals = s.ledger.Totals.add(rc)
	s.t++
	return rc, nil
}

// Run plays the whole sequence and returns the ledger. It is the batch
// wrapper over Stream: every round of the prebuilt sequence is served in
// order, so the ledger is bit-identical to what the pre-Stream driver
// produced. It fails if a round with requests is served by a configuration
// without active servers.
func Run(env *Env, alg Algorithm, seq *workload.Sequence) (*Ledger, error) {
	s, err := NewStream(env, alg, seq.Name())
	if err != nil {
		return nil, err
	}
	s.ledger.Rounds = make([]RoundCost, 0, seq.Len())
	for t := 0; t < seq.Len(); t++ {
		if _, err := s.Serve(seq.Demand(t)); err != nil {
			return nil, err
		}
	}
	return s.Ledger(), nil
}

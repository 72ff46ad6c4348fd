// Package offline implements the paper's offline strategies (Section IV),
// which know the whole request sequence in advance: the optimal dynamic
// program OPT, the lookahead best-response variants OFFBR and OFFTH, and
// the static reference OFFSTAT used to quantify the benefit of dynamic
// allocation and migration.
package offline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tractability bounds for the dynamic program. The paper simulates OPT on
// small line graphs for the same reason: "the computational complexity of
// OPT is rather high for scenarios with many servers".
const (
	// MaxOPTStates bounds the number of configurations (per-node
	// none/inactive/active vectors with at most k servers).
	MaxOPTStates = 60000
	// MaxOPTNodes bounds the node count so occupied sets fit a bitmask.
	MaxOPTNodes = 63
)

// OPT is the optimal offline algorithm of Section IV-A. It fills the
// matrix opt[time][configuration] by dynamic programming over full
// configurations γ (for every node: no server, inactive server, or active
// server), exploiting the optimal-substructure property of the migration
// problem:
//
//	opt[t][γ] = min over γ' of opt[t−1][γ'] + Cost(γ'→γ)
//	          + Costrun(γ) + Costacc(σt, γ)
//
// and reconstructs the cost-minimal configuration path backwards from the
// cheapest final configuration. Cost(γ'→γ) depends only on the occupied
// sets, so the minimisation runs over occupied sets through WFA's
// online.WorkKernel.
type OPT struct {
	seq *workload.Sequence

	env      *sim.Env
	schedule []core.Vector // chosen configuration per round
	cursor   int
	planned  float64 // DP objective, for cross-checking against the ledger
}

// NewOPT returns the optimal offline strategy for the given sequence.
func NewOPT(seq *workload.Sequence) *OPT { return &OPT{seq: seq} }

// Name implements sim.Algorithm.
func (o *OPT) Name() string { return "OPT" }

// PlannedCost returns the dynamic program's objective value: the total
// cost of the chosen schedule excluding nothing. It equals the ledger
// total of a simulation run (up to floating-point rounding) and is exposed
// for integration tests and for competitive-ratio computations.
func (o *OPT) PlannedCost() float64 { return o.planned }

// Schedule returns the chosen configuration per round. The slice is owned
// by the algorithm.
func (o *OPT) Schedule() []core.Vector { return o.schedule }

// Reset implements sim.Algorithm: it solves the dynamic program.
func (o *OPT) Reset(env *sim.Env) error {
	n := env.Graph.N()
	if n > MaxOPTNodes {
		return fmt.Errorf("opt: %d nodes exceed the tractable bound %d", n, MaxOPTNodes)
	}
	k := optServerBound(env)
	if count := core.CountVectors(n, k, MaxOPTStates); count > MaxOPTStates {
		return fmt.Errorf("opt: configuration space exceeds the tractable bound %d (n=%d, k=%d)",
			MaxOPTStates, n, k)
	}
	o.env = env
	o.cursor = 0

	rounds := o.seq.Len()
	if rounds == 0 {
		o.schedule = nil
		o.planned = 0
		return nil
	}

	s, err := newOptSolver(env, o.seq, 0) // 0 workers: GOMAXPROCS
	if err != nil {
		return err
	}
	if err := s.solve(); err != nil {
		return err
	}
	o.planned = s.planned
	o.schedule = s.scheduleOut
	return nil
}

// optServerBound is the server bound k of the configuration space.
func optServerBound(env *sim.Env) int {
	n, k := env.Graph.N(), env.Pool.MaxServers
	if k <= 0 || k > n {
		k = n
	}
	return k
}

// optSolver holds the precomputed tables of one dynamic-program solve.
// All round-invariant quantities — per-state occupied-set classes, active
// indexes and running costs, the access sweep over the active sets, and
// the work-function kernel over occupied sets — are hoisted out of the
// per-round recurrence, which then runs over flat slices (no map lookups)
// and fans out over the kernel's workers.
type optSolver struct {
	env    *sim.Env
	seq    *workload.Sequence
	states []core.Vector
	kern   *online.WorkKernel

	// Per state: kernel class of its occupied set, dense active-set index,
	// and the round-invariant running cost.
	classOf []int32
	actIdx  []int32
	runOf   []float64

	// sweep prices the non-empty active sets, active indexes 1.. in
	// order; index 0 is ∅, which serves nothing.
	sweep *cost.ConfSweep
	// order lists the occupied sets by first appearance in states: the
	// source order of the per-state scan, whose first minimiser the
	// kernel's tie-break reproduces.
	order []int32

	// Per-round scratch, preallocated once.
	prev, next             []float64
	access                 []float64 // per active index, for the current round
	latency                []float64 // per non-empty active set: the round's latency
	bestByClass, arrival   []float64
	argByClass, arrivalArg []int32 // per class: best state; arrival's parent state
	parent                 [][]int32
	parentSlab             []int32
	curParent              []int32 // parent row of the round being stepped
	finishFn               func(lo, hi int)

	planned     float64
	scheduleOut []core.Vector
}

func newOptSolver(env *sim.Env, seq *workload.Sequence, workers int) (*optSolver, error) {
	n, k := env.Graph.N(), optServerBound(env)
	s := &optSolver{env: env, seq: seq, states: core.EnumerateVectors(n, k, 0)}
	kern, err := online.NewWorkKernel(env.Costs, core.EnumeratePlacements(n, k), n, k, workers)
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	s.kern = kern
	ns := len(s.states)
	s.classOf = make([]int32, ns)
	s.actIdx = make([]int32, ns)
	s.runOf = make([]float64, ns)

	classes := kern.IndexOf(nil) + 1 // ∅ is the last class
	s.order = make([]int32, 0, classes)
	classOfMask := make(map[uint64]int32)
	activeIndex := map[uint64]int32{0: 0}
	var active [][]int // non-empty active sets, active index 1..
	for i, st := range s.states {
		occ := st.OccupiedMask()
		c, ok := classOfMask[occ]
		if !ok {
			var set core.Placement
			for m := occ; m != 0; m &= m - 1 {
				set = append(set, bits.TrailingZeros64(m))
			}
			c = int32(kern.IndexOf(set))
			s.order = append(s.order, c)
			classOfMask[occ] = c
		}
		s.classOf[i] = c

		act := st.ActiveMask()
		ai, ok := activeIndex[act]
		if !ok {
			ai = int32(len(activeIndex))
			activeIndex[act] = ai
			active = append(active, st.ActivePlacement())
		}
		s.actIdx[i] = ai
		s.runOf[i] = st.RunCost(env.Costs)
	}

	rounds := seq.Len()
	s.prev = make([]float64, ns)
	s.next = make([]float64, ns)
	s.sweep = cost.NewConfSweep(env.Eval, active)
	s.access = make([]float64, len(activeIndex))
	s.latency = make([]float64, len(active))
	s.bestByClass = make([]float64, classes)
	s.arrival = make([]float64, classes)
	s.argByClass = make([]int32, classes)
	s.arrivalArg = make([]int32, classes)
	s.parentSlab = make([]int32, rounds*ns)
	s.parent = make([][]int32, rounds)
	for t := range s.parent {
		s.parent[t] = s.parentSlab[t*ns : (t+1)*ns]
	}
	s.finishFn = s.finishRange
	return s, nil
}

// fillAccess computes the access cost of round t for every distinct active
// set (Costacc is shared by all states with the same active placement) in
// one sweep. Infeasible sets, and ∅ under any demand, cost +Inf.
func (s *optSolver) fillAccess(t int) {
	d := s.seq.Demand(t)
	s.access[0] = 0
	if !d.Empty() {
		s.access[0] = math.Inf(1)
	}
	s.sweep.SweepAccess(d, s.access[1:], s.latency)
	for i, lat := range s.latency {
		if (cost.AccessCost{Latency: lat}).Infinite() {
			s.access[i+1] = math.Inf(1)
		}
	}
}

// step advances the recurrence from round t-1 (in prev) to round t (into
// next): the minimisation over predecessor states collapses to their
// occupied sets, and the kernel resolves every destination set at once.
// Given the sets in first-appearance order, it reports the first
// minimising source set in that order, exactly like the per-state scan it
// replaces.
func (s *optSolver) step(t int) {
	for c := range s.bestByClass {
		s.bestByClass[c] = math.Inf(1)
		s.argByClass[c] = -1
	}
	for i, c := range s.classOf {
		if s.prev[i] < s.bestByClass[c] {
			s.bestByClass[c] = s.prev[i]
			s.argByClass[c] = int32(i)
		}
	}
	s.fillAccess(t)
	s.kern.Relax(s.bestByClass, s.order, s.arrival, s.arrivalArg)
	for c, from := range s.arrivalArg { // source class → its best state
		if from >= 0 {
			s.arrivalArg[c] = s.argByClass[from]
		}
	}
	s.curParent = s.parent[t]
	s.kern.Fan(len(s.states), s.finishFn)
	s.prev, s.next = s.next, s.prev
}

// finishRange combines arrival, running and access cost into next and
// records the parent pointers of the current round.
func (s *optSolver) finishRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		c := s.classOf[i]
		s.next[i] = s.arrival[c] + s.runOf[i] + s.access[s.actIdx[i]]
		s.curParent[i] = s.arrivalArg[c]
	}
}

// solve runs the full dynamic program and backtracks the schedule.
func (s *optSolver) solve() error {
	rounds := s.seq.Len()

	// γ0 is the shared initial configuration: Start nodes active.
	start := core.NewVector(s.env.Graph.N())
	for _, v := range s.env.Start {
		start[v] = core.StateActive
	}
	startOcc := start.OccupiedMask()

	// Round 0: opt[0][γ] = Cost(γ0→γ) + Costrun(γ) + Costacc(σ0, γ).
	s.fillAccess(0)
	for i, st := range s.states {
		s.prev[i] = core.TransitionCostMasks(s.env.Costs, startOcc, st.OccupiedMask()) +
			s.runOf[i] + s.access[s.actIdx[i]]
		s.parent[0][i] = -1
	}

	for t := 1; t < rounds; t++ {
		s.step(t)
	}

	// Backtrack from the cheapest final configuration.
	bestFinal, argFinal := math.Inf(1), -1
	for i, c := range s.prev {
		if c < bestFinal {
			bestFinal, argFinal = c, i
		}
	}
	if argFinal < 0 {
		return fmt.Errorf("opt: no feasible schedule (every configuration has infinite cost)")
	}
	s.planned = bestFinal
	s.scheduleOut = make([]core.Vector, rounds)
	cur := int32(argFinal)
	for t := rounds - 1; t >= 0; t-- {
		s.scheduleOut[t] = s.states[cur]
		cur = s.parent[t][cur]
	}
	return nil
}

// vectorAt returns the configuration serving round t (γ0 before round 0).
func (o *OPT) vectorAt(t int) core.Vector {
	if t < 0 || len(o.schedule) == 0 {
		n := o.env.Graph.N()
		v := core.NewVector(n)
		for _, s := range o.env.Start {
			v[s] = core.StateActive
		}
		return v
	}
	if t >= len(o.schedule) {
		t = len(o.schedule) - 1
	}
	return o.schedule[t]
}

// Prepare implements sim.Algorithm: OPT reconfigures before serving the
// round, exactly as in the dynamic program's recurrence.
func (o *OPT) Prepare(t int) core.Delta {
	from, to := o.vectorAt(t-1), o.vectorAt(t)
	o.cursor = t
	fromOcc, toOcc := from.OccupiedMask(), to.OccupiedMask()
	d := core.NewDelta(o.env.Costs, bits.OnesCount64(toOcc&^fromOcc), bits.OnesCount64(fromOcc&^toOcc))
	if d.Total() == 0 {
		return core.Delta{}
	}
	return d
}

// Placement implements sim.Algorithm.
func (o *OPT) Placement() core.Placement { return o.vectorAt(o.cursor).ActivePlacement() }

// Inactive implements sim.Algorithm.
func (o *OPT) Inactive() int {
	_, inactive := o.vectorAt(o.cursor).Counts()
	return inactive
}

// Observe implements sim.Algorithm: OPT acts only in Prepare.
func (o *OPT) Observe(int, cost.Demand, cost.AccessCost) core.Delta { return core.Delta{} }

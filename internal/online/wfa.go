package online

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// WFA is the classical work-function algorithm for metrical task systems,
// included as the theory-grounded baseline the paper's related-work section
// points to ("there is, e.g., an asymptotically optimal deterministic
// Θ(n)-competitive algorithm, where n is the state space"). States are the
// active placements of at most k servers; the per-round task cost of a
// state is its access plus running cost; the transition cost between
// states is the reconfiguration cost of Examples 1–3.
//
// WFA maintains the work function
//
//	w_t(γ) = min over γ' of [ w_{t-1}(γ') + task_t(γ') + d(γ', γ) ]
//
// (the cheapest cost of any schedule that serves rounds 0..t and ends in
// γ) and, after each round, moves to the state minimising
// w_t(γ) + d(γ_cur, γ).
//
// The naive update is O(C²) per round over a dense C×C distance matrix
// (O(C²) memory — 32 GB at the nominal MaxONCONFConfigs bound). Both
// collapse because the transition cost depends only on the set-difference
// shape (how many servers enter and how many leave, at most (k+1)²
// distinct values, see shapeTable): the update runs through WorkKernel
// (hier.go), the subset-lattice minimisation the offline OPT dynamic
// program shares, in O(C·2^k·k) per round. The move rule prunes
// hierarchically instead: configurations are grouped into contiguous prefix
// clusters (core.EnumeratePlacements' DFS order, hier.go), and per-cluster
// scratch minima with shape lower bounds rule whole clusters out before
// members are scored. Every candidate either enters a min unchanged or is
// skipped only with proof it cannot strictly improve it, so fast paths
// compute exactly the full scan's float sums (TestWFAMatchesNaiveReference,
// TestWFAPrunedScanPerRoundParity).
type WFA struct {
	base

	// MaxConfigs overrides the configuration-space bound (0 selects the
	// default MaxONCONFConfigs). State is O(C·2^k) words, no longer O(C²),
	// so the bound is a memory/latency knob, not a hard wall; the Reset
	// error reports the footprint a rejected space would need.
	MaxConfigs int

	configs []core.Placement
	work    []float64
	scratch []float64
	cur     int

	kern     *WorkKernel     // work-function update; its shape table and sizes serve the move rule
	clusters []configCluster // prefix decomposition (move-rule pruning, stats)
	cMin     []float64       // per cluster: min scratch this round
	mrVal    []float64       // per cluster: best move-rule value below the stay-put seed
	mrIdx    []int32         // per cluster: index attaining mrVal (-1 = none)
	improved int

	sweep   *cost.ConfSweep
	taskBuf []float64 // scratch: per-config access totals of the round
	latBuf  []float64 // scratch: per-config access latencies (feasibility test)
	runCost []float64 // per config: Costrun(γ) for one round
}

// NewWFA returns the work-function baseline.
func NewWFA() *WFA { return &WFA{} }

// Name implements sim.Algorithm.
func (a *WFA) Name() string { return "WFA" }

// Stats reports the space decomposition and the size of the last round's
// changed-set (destinations whose work function was improved by a
// non-trivial predecessor rather than their own stay-put schedule).
func (a *WFA) Stats() (configs, clusters, improved int) {
	return len(a.configs), len(a.clusters), a.improved
}

// Reset implements sim.Algorithm.
func (a *WFA) Reset(env *sim.Env) error {
	if len(env.Start) == 0 {
		return fmt.Errorf("wfa: empty initial placement")
	}
	n := env.Graph.N()
	k := env.Pool.MaxServers
	if k <= 0 || k > n {
		k = n
	}
	bound := a.MaxConfigs
	if bound <= 0 {
		bound = MaxONCONFConfigs
	}
	if err := checkConfigSpace("wfa", "", n, k, bound); err != nil {
		return err
	}
	a.reset(env)
	a.configs = core.EnumeratePlacements(n, k)
	C := len(a.configs)
	a.work = make([]float64, C)
	a.scratch = make([]float64, C)
	a.cur = -1
	for i, c := range a.configs {
		if c.Equal(env.Start) {
			a.cur = i
		}
	}
	if a.cur < 0 {
		return fmt.Errorf("wfa: initial placement %v not in configuration space", env.Start)
	}
	kern, err := NewWorkKernel(env.Costs, a.configs, n, k, 0)
	if err != nil {
		return fmt.Errorf("wfa: %w; lower MaxConfigs or the server bound k", err)
	}
	a.kern = kern
	a.clusters = buildClusters(a.configs, n)
	M := len(a.clusters)
	a.cMin = make([]float64, M)
	a.mrVal = make([]float64, M)
	a.mrIdx = make([]int32, M)
	views := make([][]int, C)
	a.runCost = make([]float64, C)
	for i, c := range a.configs {
		views[i] = c
		a.runCost[i] = env.Costs.Run(c.Len(), 0)
		// Initial work function: cost of moving from the start state.
		entering, leaving := env.Start.DiffSize(c)
		a.work[i] = env.Costs.Transition(entering, leaving)
	}
	a.sweep = cost.NewConfSweep(env.Eval, views)
	a.taskBuf = make([]float64, C)
	a.latBuf = make([]float64, C)
	return nil
}

// Observe implements sim.Algorithm: incorporate round t's task costs into
// the work function and move with the operational rule of Borodin &
// El-Yaniv,
//
//	γ_next = argmin over γ of [ w_{t-1}(γ) + task_t(γ) + d(γ_cur, γ) ],
//
// which strictly improves when staying keeps accumulating task cost (the
// plain "argmin w_t(γ) + d" rule never moves: by the work function's
// Lipschitz property the current state is always among its minimisers).
func (a *WFA) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	// scratch(γ) = w_{t-1}(γ) + task_t(γ), with the round's access totals
	// batched through the sweep. Feasibility uses AccessCost.Infinite's
	// exact test on the latency term (graph.Infinity is a finite sentinel,
	// so testing the total for +Inf would miss it on disconnected
	// substrates).
	a.sweep.SweepAccess(d, a.taskBuf, a.latBuf)
	for i := range a.configs {
		task := math.Inf(1)
		if !(cost.AccessCost{Latency: a.latBuf[i]}).Infinite() {
			task = a.taskBuf[i] + a.runCost[i]
		}
		a.scratch[i] = a.work[i] + task
	}
	a.clusterStats()
	next := a.moveRule()
	a.updateWork()
	if next == a.cur {
		return core.Delta{}
	}
	a.cur = next
	return a.apply(a.configs[next])
}

// clusterStats computes each cluster's scratch minimum, the bound the
// move rule prunes whole clusters with.
func (a *WFA) clusterStats() {
	M := len(a.clusters)
	if len(a.configs) >= parallelGrain {
		cost.ParallelChunks(M, true, a.clusterStatsRange)
	} else {
		a.clusterStatsRange(0, M)
	}
}

func (a *WFA) clusterStatsRange(lo, hi int) {
	for s := lo; s < hi; s++ {
		cl := &a.clusters[s]
		mn := a.scratch[cl.lo]
		for _, v := range a.scratch[cl.lo+1 : cl.hi] {
			if v < mn {
				mn = v
			}
		}
		a.cMin[s] = mn
	}
}

// moveRule picks γ_next with ties keeping the earliest index and the
// current state when nothing strictly beats its stay-put value — exactly
// the serial full scan's choice. Each cluster records its best strict
// improvement over the stay-put seed independently (so the fan-out is
// worker-count invariant) and the per-cluster results merge serially in
// index order. A candidate is skipped only when a shape lower bound proves
// it cannot strictly improve the incumbent, which can never skip the full
// scan's first argmin.
func (a *WFA) moveRule() int {
	cur := a.configs[a.cur]
	seed := a.scratch[a.cur] // d(γ_cur, γ_cur) = 0: the stay-put value
	M := len(a.clusters)
	if len(a.configs) >= parallelGrain {
		cost.ParallelChunks(M, true, func(lo, hi int) { a.moveRuleRange(cur, seed, lo, hi) })
	} else {
		a.moveRuleRange(cur, seed, 0, M)
	}
	next, bestVal := a.cur, seed
	for s := range a.mrVal {
		if v := a.mrVal[s]; v < bestVal {
			next, bestVal = int(a.mrIdx[s]), v
		}
	}
	return next
}

func (a *WFA) moveRuleRange(cur core.Placement, seed float64, lo, hi int) {
	shape, sizes := a.kern.shape, a.kern.size
	k1 := shape.k1
	aCur := len(cur)
	for s := lo; s < hi; s++ {
		a.mrVal[s], a.mrIdx[s] = math.Inf(1), -1
		cl := &a.clusters[s]
		best, idx := seed, int32(-1)
		if a.cMin[s] >= best {
			continue
		}
		// γ_cur → member: at least mis nodes enter, at least unc leave.
		unc, mis := cl.prefixBounds(cur)
		if a.cMin[s]+shape.sufMin[mis*k1+unc] >= best {
			continue
		}
		for j := cl.lo; j < cl.hi; j++ {
			sj := a.scratch[j]
			if sj >= best {
				continue
			}
			if sj+shape.classMin[aCur*k1+int(sizes[j])] >= best {
				continue
			}
			e, l := cur.DiffSize(a.configs[j])
			if v := sj + shape.cost[e*k1+l]; v < best {
				best, idx = v, int32(j)
			}
		}
		if idx >= 0 {
			a.mrVal[s], a.mrIdx[s] = best, idx
		}
	}
}

// updateWork computes w_t(γ) = min_γ' [scratch(γ') + d(γ', γ)] for every
// destination through the shared WorkKernel and counts the destinations a
// non-trivial predecessor improved.
func (a *WFA) updateWork() {
	a.kern.Relax(a.scratch, nil, a.work, nil)
	a.improved = 0
	for j, w := range a.work {
		if w < a.scratch[j] {
			a.improved++
		}
	}
}

package online

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// MaxONCONFConfigs is the default bound on the configuration space ONCONF
// and WFA are willing to track (override per instance with MaxConfigs).
// The paper itself notes that "due to the configuration complexity, the
// runtime is only acceptable for a small number of servers k", which is
// why the efficient variants ONBR and ONTH exist; but with the dense
// distance matrix gone the state is O(C), so the bound is a knob rather
// than a wall — the Reset error reports the memory a larger space implies.
const MaxONCONFConfigs = 1 << 16

// ONCONF is the generic configuration-counter algorithm of Section III,
// generalising the single-server algorithm of Bienkowski et al. (VISA'10).
// It maintains a counter C(γ) for every configuration γ (every non-empty
// placement of at most k active servers). During an epoch each round adds
// to every counter the cost that configuration would have paid for the
// round (access cost plus running cost). The current configuration is kept
// until its counter reaches k·c; then ONCONF switches to a configuration
// chosen uniformly at random among those with C(γ) < k·c. If no such
// configuration remains, the epoch ends and all counters reset.
//
// Charging every configuration every round is the hot loop; it runs
// through cost.ConfSweep, which batches the whole configuration space into
// one pass per round (bit-identical to the per-configuration Access loop,
// see TestONCONFMatchesNaiveReference). The counter adds fan out over the
// prefix clusters of hier.go, each cluster's minimum maintained in the
// same pass so the switch scan can skip whole clusters that are entirely
// over budget.
type ONCONF struct {
	base
	// Rand drives the uniform random switch. It must be set (use
	// NewONCONF).
	Rand *rand.Rand

	// MaxConfigs overrides the configuration-space bound (0 selects the
	// default MaxONCONFConfigs).
	MaxConfigs int

	configs  []core.Placement
	counters []float64
	cur      int
	budget   float64 // k·c

	clusters []configCluster // prefix decomposition, for the alive scan
	cMin     []float64       // per cluster: min counter after the charge pass

	sweep     *cost.ConfSweep
	roundCost []float64 // scratch: this round's access total per config
	runCost   []float64 // per config: Costrun(γ) for one round
	alive     []int     // scratch: configs still under budget
}

// NewONCONF returns an ONCONF driven by the given source of randomness.
func NewONCONF(rng *rand.Rand) *ONCONF { return &ONCONF{Rand: rng} }

// Name implements sim.Algorithm.
func (a *ONCONF) Name() string { return "ONCONF" }

// Reset implements sim.Algorithm. It fails when the configuration space of
// the environment is too large to enumerate.
func (a *ONCONF) Reset(env *sim.Env) error {
	if a.Rand == nil {
		return fmt.Errorf("onconf: no random source")
	}
	if len(env.Start) == 0 {
		return fmt.Errorf("onconf: empty initial placement")
	}
	k := env.Pool.MaxServers
	if k <= 0 {
		k = env.Graph.N()
	}
	bound := a.MaxConfigs
	if bound <= 0 {
		bound = MaxONCONFConfigs
	}
	if err := checkConfigSpace("onconf", "; or use ONBR or ONTH", env.Graph.N(), k, bound); err != nil {
		return err
	}
	a.configs = core.EnumeratePlacements(env.Graph.N(), k)
	a.reset(env)
	a.counters = make([]float64, len(a.configs))
	a.cur = -1
	for i, c := range a.configs {
		if c.Equal(env.Start) {
			a.cur = i
			break
		}
	}
	if a.cur < 0 {
		return fmt.Errorf("onconf: initial placement %v not in configuration space", env.Start)
	}
	a.budget = float64(k) * env.Costs.Create

	views := make([][]int, len(a.configs))
	a.runCost = make([]float64, len(a.configs))
	for i, c := range a.configs {
		views[i] = c
		a.runCost[i] = env.Costs.Run(c.Len(), 0)
	}
	a.sweep = cost.NewConfSweep(env.Eval, views)
	a.roundCost = make([]float64, len(a.configs))
	a.clusters = buildClusters(a.configs, env.Graph.N())
	a.cMin = make([]float64, len(a.clusters))
	a.alive = a.alive[:0]
	return nil
}

// Observe implements sim.Algorithm.
func (a *ONCONF) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	// Every configuration is charged what it would have paid this round,
	// in one batched sweep over the configuration space. The counter adds
	// fan out in contiguous cluster chunks with each cluster's minimum
	// folded into the same pass; every counter gets exactly the one add of
	// the serial loop, so the parallel pass cannot change a bit. The
	// serial path avoids the closure so steady-state rounds stay
	// allocation-free (TestONCONFObserveAllocationFree).
	a.sweep.Sweep(d, a.roundCost)
	M := len(a.clusters)
	if len(a.configs) >= parallelGrain {
		cost.ParallelChunks(M, true, a.chargeRange)
	} else {
		a.chargeRange(0, M)
	}
	if a.counters[a.cur] < a.budget {
		return core.Delta{}
	}
	// Switch uniformly at random among configurations still under budget.
	// Clusters whose cheapest counter is already over budget are skipped
	// without touching members; clusters tile [0, C) in index order, so
	// the alive list is identical to the full scan's.
	alive := a.alive[:0]
	for s := range a.clusters {
		if a.cMin[s] >= a.budget {
			continue
		}
		cl := &a.clusters[s]
		for i := cl.lo; i < cl.hi; i++ {
			if a.counters[i] < a.budget {
				alive = append(alive, i)
			}
		}
	}
	a.alive = alive
	if len(alive) == 0 {
		// Epoch over: reset counters, keep the configuration. The stale
		// cluster minima are recomputed by the next round's charge pass
		// before anything reads them.
		for i := range a.counters {
			a.counters[i] = 0
		}
		a.pool.AdvanceEpoch()
		return core.Delta{}
	}
	next := alive[a.Rand.Intn(len(alive))]
	a.cur = next
	delta := a.apply(a.configs[next])
	a.pool.AdvanceEpoch()
	return delta
}

// chargeRange adds this round's cost to every counter in clusters
// [lo, hi), tracking each cluster's minimum.
func (a *ONCONF) chargeRange(lo, hi int) {
	for s := lo; s < hi; s++ {
		cl := &a.clusters[s]
		mn := math.Inf(1)
		for i := cl.lo; i < cl.hi; i++ {
			c := a.counters[i] + (a.roundCost[i] + a.runCost[i])
			a.counters[i] = c
			if c < mn {
				mn = c
			}
		}
		a.cMin[s] = mn
	}
}

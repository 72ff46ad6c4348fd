package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph/cluster"
	"repro/internal/sim"
)

// ONBR is the sequential best-response variant of ONCONF (Section III-A):
// time is divided into epochs; an epoch ends when the cost accumulated in
// the current configuration (access plus running cost) reaches a threshold
// θ, and the algorithm then switches to the cheapest configuration — with
// respect to the passed epoch and including access, migration, running and
// creation cost — among keeping the configuration, migrating one server,
// deactivating one server, or activating/creating one server.
//
// The paper evaluates two threshold variants ("fixed" and "dyn"): a fixed
// θ = 2c, and a dynamic θ = 2c/ℓ where ℓ is the length of the preceding
// epoch, so that the system adapts more quickly after fast-changing epochs.
type ONBR struct {
	base
	// Dynamic selects the θ = 2c/ℓ variant.
	Dynamic bool
	// ThetaFactor scales the threshold: θ = ThetaFactor · c. The paper
	// uses 2. Zero selects the default.
	ThetaFactor float64
	// Clusters, when positive, restricts migration and creation targets to
	// that many k-centers cluster representatives — the "cluster
	// granularity" speed-up sketched in Section III-A. Zero considers
	// every node.
	Clusters int

	theta   float64
	epoch   epoch
	targets []int
}

// NewONBR returns the fixed-threshold variant.
func NewONBR() *ONBR { return &ONBR{} }

// NewONBRDynamic returns the dynamic-threshold variant.
func NewONBRDynamic() *ONBR { return &ONBR{Dynamic: true} }

// NewONBRClustered returns the fixed-threshold variant restricted to k
// cluster representatives.
func NewONBRClustered(clusters int) *ONBR { return &ONBR{Clusters: clusters} }

// Name implements sim.Algorithm.
func (a *ONBR) Name() string {
	if a.Clusters > 0 {
		return fmt.Sprintf("ONBR-cluster(%d)", a.Clusters)
	}
	if a.Dynamic {
		return "ONBR-dyn"
	}
	return "ONBR-fixed"
}

func (a *ONBR) factor() float64 { return paperFactor(a.ThetaFactor) }

// Reset implements sim.Algorithm.
func (a *ONBR) Reset(env *sim.Env) error {
	if len(env.Start) == 0 {
		return fmt.Errorf("onbr: empty initial placement")
	}
	a.reset(env, a.state)
	a.theta = a.factor() * env.Costs.Create
	a.epoch = newEpoch(env.Graph.N())
	a.targets = nil
	if a.Clusters > 0 {
		cl, err := cluster.KCenters(env.Metric, a.Clusters)
		if err != nil {
			return fmt.Errorf("onbr: %w", err)
		}
		a.targets = cl.Centers
	}
	return nil
}

// Observe implements sim.Algorithm.
func (a *ONBR) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	a.epoch.observe(d, access.Total()+a.pool.RunCost())
	if a.epoch.accum < a.theta {
		return core.Delta{}
	}
	// Epoch over: best response against the epoch just passed.
	length := a.epoch.rounds(t)
	agg := a.epoch.agg.Demand()
	target := a.bestResponse(agg, length, SearchMoves{Move: true, Deactivate: true, Add: true, Targets: a.targets})
	delta := a.apply(target)
	a.pool.AdvanceEpoch()
	if a.Dynamic && length > 0 {
		a.theta = a.factor() * a.env.Costs.Create / float64(length)
	}
	a.epoch.restart(t + 1)
	return delta
}

// Package cost implements the cost model of Section II of the paper: the
// access cost Costacc(t) = Σ delay(r) + Σ load(v,t) paid by requests, the
// running costs Ra/Ri of active and inactive servers, the creation cost c
// and the migration cost β, together with the routing of requests to the
// servers of minimal access cost.
package cost

import (
	"fmt"
	"math"
)

// Params bundles the scalar cost constants of Section II-C.
type Params struct {
	// Beta is the migration cost β charged for moving one server between
	// substrate nodes (the origin node becomes empty).
	Beta float64
	// Create is the creation cost c for starting up a server that is not
	// in use (installation, template configuration, addresses, ...).
	Create float64
	// RunActive is Ra, the per-round cost of one active server.
	RunActive float64
	// RunInactive is Ri, the per-round cost of one inactive server (stored
	// application software plus maintenance).
	RunInactive float64
}

// DefaultParams are the paper's simulation defaults (Section V-A): β = 40,
// c = 400, and the Rocketfuel experiment's Ra = 2.5, Ri = 0.5.
func DefaultParams() Params {
	return Params{Beta: 40, Create: 400, RunActive: 2.5, RunInactive: 0.5}
}

// InvertedParams are the "β > c" variant used in several experiments
// (β = 400, c = 40), in which migration is never beneficial.
func InvertedParams() Params {
	p := DefaultParams()
	p.Beta, p.Create = 400, 40
	return p
}

// Validate reports whether the parameters are usable: all costs must be
// non-negative and finite, and creation must cost something (a zero
// creation cost would make the allocation problem degenerate — every
// algorithm would simply create a server at every access point).
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Beta", p.Beta},
		{"Create", p.Create},
		{"RunActive", p.RunActive},
		{"RunInactive", p.RunInactive},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cost: invalid %s = %v", f.name, f.v)
		}
	}
	if p.Create == 0 {
		return fmt.Errorf("cost: creation cost must be positive")
	}
	return nil
}

// MigrationBeneficial reports whether β < c, the "more interesting case" the
// paper's algorithm descriptions focus on. When false, migration is never
// used and the problem reduces to when and where to create and delete
// servers.
func (p Params) MigrationBeneficial() bool { return p.Beta < p.Create }

// PlaceCost is the cheapest way to fill one new server slot: by migrating
// an available server (β) when migration is beneficial, else by creating a
// fresh one (c).
func (p Params) PlaceCost() float64 {
	return math.Min(p.Beta, p.Create)
}

// Run returns the running cost of one round for a configuration with the
// given numbers of active and inactive servers.
func (p Params) Run(active, inactive int) float64 {
	return float64(active)*p.RunActive + float64(inactive)*p.RunInactive
}

// Transition returns the cheapest cost of turning a configuration that
// occupies |vacated| server slots no longer needed into one that needs
// |created| new slots, following Examples 1–3 of Section II-C: each new
// slot is filled either by migrating one of the vacated servers (β) or by
// creating a fresh server (c); removing servers and flipping a server
// between active and inactive in place are free.
func (p Params) Transition(created, vacated int) float64 {
	if created <= 0 {
		return 0
	}
	m := p.Migrations(created, vacated)
	return float64(m)*p.Beta + float64(created-m)*p.Create
}

// Migrations returns how many of `created` new slots the cheapest
// reconfiguration fills by migrating one of `vacated` servers; the rest
// are created. Migration is used only when it pays (β < c).
func (p Params) Migrations(created, vacated int) int {
	if created <= 0 || !p.MigrationBeneficial() {
		return 0
	}
	return min(vacated, created)
}

func (p Params) String() string {
	return fmt.Sprintf("cost{β=%g c=%g Ra=%g Ri=%g}", p.Beta, p.Create, p.RunActive, p.RunInactive)
}

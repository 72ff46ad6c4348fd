package core

import (
	"fmt"
	"sort"

	"repro/internal/cost"
)

// Delta is the reconfiguration cost of one pool operation, split by cause.
type Delta struct {
	Migration  float64 // β per migrated server
	Creation   float64 // c per freshly created server
	Migrations int
	Creations  int
}

// NewDelta prices filling `created` new server slots given `vacated`
// servers available for migration, split by cause (cost.Params.Migrations
// decides the split; cost.Params.Transition is the same total).
func NewDelta(p cost.Params, created, vacated int) Delta {
	if created <= 0 {
		return Delta{}
	}
	m := p.Migrations(created, vacated)
	return Delta{
		Migration:  float64(m) * p.Beta,
		Creation:   float64(created-m) * p.Create,
		Migrations: m,
		Creations:  created - m,
	}
}

// Total returns the summed reconfiguration cost.
func (d Delta) Total() float64 { return d.Migration + d.Creation }

// Add accumulates another delta.
func (d Delta) Add(o Delta) Delta {
	return Delta{
		Migration:  d.Migration + o.Migration,
		Creation:   d.Creation + o.Creation,
		Migrations: d.Migrations + o.Migrations,
		Creations:  d.Creations + o.Creations,
	}
}

// inactiveEntry is one cached inactive server.
type inactiveEntry struct {
	node int
	born int // epoch in which the server became inactive
}

// Pool owns the virtual servers of one algorithm run: the active placement
// plus the FIFO cache of inactive servers described in Section III-A
// ("Inactive servers are organized in a queue of constant size where the
// oldest server in the queue is the first to be replaced; inactive servers
// in the queue expire after x epochs").
//
// All reconfiguration goes through SwitchTo, which charges costs following
// Examples 1–3 of Section II-C:
//
//   - a node keeping its server is free, as is flipping a server between
//     active and inactive in place;
//   - a new node is filled for free if that node already caches an inactive
//     server, else by migrating a vacated or cached server (β, the source
//     slot empties), else by creating a fresh server (c);
//   - when β ≥ c migration is never used;
//   - servers that stop being active enter the cache (the oldest cached
//     server falls out of use if the cache overflows).
type Pool struct {
	params   Params
	active   Placement
	inactive []inactiveEntry // FIFO: index 0 is the oldest
	epoch    int
}

// Params configure a pool.
type Params struct {
	Costs cost.Params
	// QueueCap is the constant size of the inactive-server cache
	// (simulations in the paper use 3). Zero disables caching.
	QueueCap int
	// Expiry is the number of epochs after which a cached inactive server
	// expires (the paper uses x = 20). Zero or negative means no expiry.
	Expiry int
	// MaxServers is the redundancy bound k = |S|; SwitchTo refuses
	// placements with more active servers. Zero or negative means
	// unbounded.
	MaxServers int
}

// NewPool returns a pool with no servers. Use SwitchTo (or Bootstrap) to
// install the initial configuration.
func NewPool(p Params) *Pool {
	if p.QueueCap < 0 {
		panic("core: negative queue capacity")
	}
	return &Pool{params: p}
}

// Bootstrap installs the initial placement without charging any cost. All
// algorithms in a comparison start from the same initial configuration γ0
// (one server at the network center), so its creation cost is common to
// every strategy and excluded from the ledgers.
func (p *Pool) Bootstrap(active Placement) {
	p.active = active.Clone()
	p.inactive = nil
	p.epoch = 0
}

// Active returns the current placement. The returned value is a copy.
func (p *Pool) Active() Placement { return p.active.Clone() }

// NumActive returns the number of active servers.
func (p *Pool) NumActive() int { return len(p.active) }

// NumInactive returns the number of cached inactive servers.
func (p *Pool) NumInactive() int { return len(p.inactive) }

// InactiveNodes returns the nodes of cached inactive servers, oldest first.
func (p *Pool) InactiveNodes() []int {
	out := make([]int, len(p.inactive))
	for i, e := range p.inactive {
		out[i] = e.node
	}
	return out
}

// Epoch returns the pool's epoch counter.
func (p *Pool) Epoch() int { return p.epoch }

// AdvanceEpoch increments the epoch counter and expires cached servers
// older than the configured expiry.
func (p *Pool) AdvanceEpoch() {
	p.epoch++
	if p.params.Expiry <= 0 {
		return
	}
	keep := p.inactive[:0]
	for _, e := range p.inactive {
		if p.epoch-e.born < p.params.Expiry {
			keep = append(keep, e)
		}
	}
	p.inactive = keep
}

// hasInactiveAt reports whether a cached server sits at node v and returns
// its queue index.
func (p *Pool) hasInactiveAt(v int) (int, bool) {
	for i, e := range p.inactive {
		if e.node == v {
			return i, true
		}
	}
	return -1, false
}

// PredictShape returns the cost SwitchTo would charge and the number of
// cached inactive servers the pool would hold afterwards, for any target
// described only by its *shape*: it enters `entering` new nodes (of which
// `free` already cache an inactive server and activate for free) and
// vacates `leaving` active nodes. Candidate sweeps use this to price whole
// classes of single-change candidates (move/deactivate/add, cached or not)
// with four shape evaluations instead of one placement diff per candidate.
func (p *Pool) PredictShape(entering, leaving, free int) (Delta, int) {
	created := entering - free
	cached := len(p.inactive) - free
	d := NewDelta(p.params.Costs, created, leaving+cached)
	fromLeaving := d.Migrations
	if fromLeaving > leaving {
		fromLeaving = leaving
	}
	cached -= d.Migrations - fromLeaving // cache entries migrated away
	cached += leaving - fromLeaving      // vacated servers entering the cache
	if p.params.QueueCap == 0 {
		cached = 0
	} else if cached > p.params.QueueCap {
		cached = p.params.QueueCap
	}
	return d, cached
}

// shapeOf reduces a concrete target to the (entering, leaving, free)
// arguments of PredictShape.
func (p *Pool) shapeOf(target Placement) (int, int, int) {
	entering, leaving := p.active.Diff(target)
	// Entering nodes that already cache an inactive server activate free.
	free := 0
	for _, v := range entering {
		if _, ok := p.hasInactiveAt(v); ok {
			free++
		}
	}
	return len(entering), len(leaving), free
}

// PredictSwitch returns the cost SwitchTo(target) would charge, without
// changing any state.
func (p *Pool) PredictSwitch(target Placement) Delta {
	d, _ := p.PredictShape(p.shapeOf(target))
	return d
}

// PredictInactiveAfter returns the number of cached inactive servers the
// pool would hold after SwitchTo(target), used by the best-response
// algorithms to predict a candidate's running cost.
func (p *Pool) PredictInactiveAfter(target Placement) int {
	_, cached := p.PredictShape(p.shapeOf(target))
	return cached
}

// SwitchTo reconfigures the pool to the target placement and returns the
// cost charged. It returns an error if the target exceeds the server bound
// k or is empty (the service must stay reachable).
func (p *Pool) SwitchTo(target Placement) (Delta, error) {
	if len(target) == 0 {
		return Delta{}, fmt.Errorf("core: refusing to switch to an empty placement")
	}
	if p.params.MaxServers > 0 && len(target) > p.params.MaxServers {
		return Delta{}, fmt.Errorf("core: placement %v exceeds server bound k=%d", target, p.params.MaxServers)
	}
	entering, leaving := p.active.Diff(target)

	// Pass 1: free activations from the cache (Example 1, case 2).
	var needFill []int
	for _, v := range entering {
		if i, ok := p.hasInactiveAt(v); ok {
			p.inactive = append(p.inactive[:i], p.inactive[i+1:]...)
			continue
		}
		needFill = append(needFill, v)
	}

	// Pass 2: migrate vacated servers, then cached servers, oldest first
	// (Example 1 case 3, Example 2 cases 2–3); remaining slots are fresh
	// creations. Vacated servers consumed by migration do not enter the
	// cache; with β ≥ c no migration happens and all vacated servers are
	// cached.
	migrable := len(leaving) + len(p.inactive)
	d := NewDelta(p.params.Costs, len(needFill), migrable)
	consumed := d.Migrations
	// Prefer consuming vacated (previously active) servers before cached
	// ones: a cached server may still activate free later at its own node,
	// a vacated one never can (its node just left the placement).
	fromLeaving := consumed
	if fromLeaving > len(leaving) {
		fromLeaving = len(leaving)
	}
	fromCache := consumed - fromLeaving
	// Drop the oldest cached servers that were migrated away.
	p.inactive = append([]inactiveEntry(nil), p.inactive[fromCache:]...)
	// Cache the vacated servers that were not migrated.
	for _, v := range leaving[fromLeaving:] {
		p.cacheServer(v)
	}
	p.active = target.Clone()
	sort.Ints(p.active)
	return d, nil
}

// cacheServer pushes a newly inactive server; the oldest entry falls out of
// use when the cache is full.
func (p *Pool) cacheServer(node int) {
	if p.params.QueueCap == 0 {
		return
	}
	if len(p.inactive) == p.params.QueueCap {
		p.inactive = p.inactive[1:]
	}
	p.inactive = append(p.inactive, inactiveEntry{node: node, born: p.epoch})
}

// RunCost returns the running cost of one round in the current
// configuration: Ra per active plus Ri per cached inactive server.
func (p *Pool) RunCost() float64 {
	return p.params.Costs.Run(len(p.active), len(p.inactive))
}

// ServerRef is one cached inactive server in a PoolState snapshot.
type ServerRef struct {
	Node int `json:"node"`
	Born int `json:"born"`
}

// PoolState is an exact snapshot of a pool's mutable state: the active
// placement, the inactive FIFO in queue order (oldest first, with birth
// epochs so expiry resumes correctly), and the epoch counter. Params are
// not captured — a snapshot is only meaningful restored into a pool built
// with the identical Params.
type PoolState struct {
	Active   []int       `json:"active"`
	Inactive []ServerRef `json:"inactive,omitempty"`
	Epoch    int         `json:"epoch"`
}

// State snapshots the pool.
func (p *Pool) State() PoolState {
	s := PoolState{Active: append([]int(nil), p.active...), Epoch: p.epoch}
	for _, e := range p.inactive {
		s.Inactive = append(s.Inactive, ServerRef{Node: e.node, Born: e.born})
	}
	return s
}

// Restore reinstalls a snapshot taken from a pool with the same Params.
func (p *Pool) Restore(s PoolState) {
	p.active = append(Placement(nil), s.Active...)
	p.inactive = nil
	for _, e := range s.Inactive {
		p.inactive = append(p.inactive, inactiveEntry{node: e.Node, born: e.Born})
	}
	p.epoch = s.Epoch
}

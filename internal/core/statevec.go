package core

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cost"
)

// ServerState is the per-node server state from Section II-C.
type ServerState uint8

const (
	// StateNone means the node hosts no server.
	StateNone ServerState = iota
	// StateInactive means the node hosts a stored but idle server (cost Ri
	// per round).
	StateInactive
	// StateActive means the node hosts a serving server (cost Ra per
	// round).
	StateActive
)

func (s ServerState) String() string {
	switch s {
	case StateNone:
		return "-"
	case StateInactive:
		return "i"
	case StateActive:
		return "A"
	default:
		return "?"
	}
}

// Vector is a full configuration γ in the sense of Definition 3.1: for each
// substrate node, whether it hosts no server, an inactive server, or an
// active server. Vectors are the state space of the optimal offline dynamic
// program.
type Vector []ServerState

// NewVector returns the all-empty configuration for n nodes.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Counts returns the number of active and inactive servers.
func (v Vector) Counts() (active, inactive int) {
	for _, s := range v {
		switch s {
		case StateActive:
			active++
		case StateInactive:
			inactive++
		}
	}
	return active, inactive
}

// ActivePlacement extracts the active server placement.
func (v Vector) ActivePlacement() Placement {
	var p Placement
	for i, s := range v {
		if s == StateActive {
			p = append(p, i)
		}
	}
	return p
}

// ActiveMask packs the active nodes into a bitmask (requires ≤ 64 nodes,
// which comfortably covers the instances OPT is tractable on).
func (v Vector) ActiveMask() uint64 {
	var m uint64
	for i, s := range v {
		if s == StateActive {
			m |= 1 << uint(i)
		}
	}
	return m
}

// OccupiedMask packs the nodes hosting any server into a bitmask.
func (v Vector) OccupiedMask() uint64 {
	var m uint64
	for i, s := range v {
		if s != StateNone {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Encode packs the vector into a base-3 integer for use as a map key.
func (v Vector) Encode() uint64 {
	var e uint64
	for i := len(v) - 1; i >= 0; i-- {
		e = e*3 + uint64(v[i])
	}
	return e
}

// DecodeVector reverses Encode for a vector of n nodes.
func DecodeVector(e uint64, n int) Vector {
	v := NewVector(n)
	for i := 0; i < n; i++ {
		v[i] = ServerState(e % 3)
		e /= 3
	}
	return v
}

// RunCost returns Costrun(γ) for one round.
func (v Vector) RunCost(p cost.Params) float64 {
	a, i := v.Counts()
	return p.Run(a, i)
}

// TransitionCost returns Cost(γ1 → γ2), the cheapest reconfiguration
// between two full configurations under the semantics of Examples 1–3:
// nodes keeping a server are free (state flips in place included), vacated
// servers may be migrated into newly occupied nodes at β each (only when
// β < c), and remaining new nodes cost a creation c each. Deleting servers
// is free.
func TransitionCost(p cost.Params, from, to Vector) float64 {
	if len(from) != len(to) {
		panic("core: transition between different-size vectors")
	}
	created, vacated := 0, 0
	for i := range from {
		occF, occT := from[i] != StateNone, to[i] != StateNone
		switch {
		case occT && !occF:
			created++
		case occF && !occT:
			vacated++
		}
	}
	return p.Transition(created, vacated)
}

// TransitionCostMasks is TransitionCost on occupied bitmasks, used in the
// dynamic program's hot loop.
func TransitionCostMasks(p cost.Params, from, to uint64) float64 {
	return p.Transition(bits.OnesCount64(to&^from), bits.OnesCount64(from&^to))
}

// EnumerateVectors lists every configuration of n nodes with at most
// maxServers servers in total (active + inactive) and at least minActive
// active servers. The number of such configurations grows as
// Σ n!/(a! i! (n−a−i)!), which is why the paper notes that OPT's complexity
// "is rather high for scenarios with many servers" and evaluates it on
// small line graphs only.
func EnumerateVectors(n, maxServers, minActive int) []Vector {
	if maxServers <= 0 || maxServers > n {
		maxServers = n
	}
	var out []Vector
	cur := NewVector(n)
	var rec func(i, active, total int)
	rec = func(i, active, total int) {
		if i == n {
			if active >= minActive {
				out = append(out, cur.Clone())
			}
			return
		}
		cur[i] = StateNone
		rec(i+1, active, total)
		if total < maxServers {
			cur[i] = StateInactive
			rec(i+1, active, total+1)
			cur[i] = StateActive
			rec(i+1, active+1, total+1)
			cur[i] = StateNone
		}
	}
	rec(0, 0, 0)
	return out
}

// CountVectors returns the number of configurations EnumerateVectors(n,
// maxServers, 0) would produce — Σ_{s=0..maxServers} C(n, s)·2^s, since
// each of the s occupied nodes is either active or inactive — clamped to
// limit+1 as soon as it exceeds limit.
func CountVectors(n, maxServers, limit int) int {
	if maxServers <= 0 || maxServers > n {
		maxServers = n
	}
	total := 1 // the all-empty configuration
	binom := 1
	pow2 := 1
	for s := 1; s <= maxServers; s++ {
		if binom > (limit+1)*s/(n-s+1)+1 {
			return limit + 1
		}
		binom = binom * (n - s + 1) / s
		if pow2 > (limit+1)/2+1 {
			return limit + 1
		}
		pow2 *= 2
		if binom > (limit+1)/pow2+1 {
			return limit + 1
		}
		total += binom * pow2
		if total > limit || total < 0 {
			return limit + 1
		}
	}
	return total
}

// CountPlacements returns Σ_{i=1..maxServers} C(n, i), the number of
// placements EnumeratePlacements would produce, clamped to limit+1 as soon
// as it exceeds limit (so callers can guard before enumerating a space that
// is far too large to materialise).
func CountPlacements(n, maxServers, limit int) int {
	if maxServers <= 0 || maxServers > n {
		maxServers = n
	}
	total := 0
	binom := 1 // C(n, 0)
	for i := 1; i <= maxServers; i++ {
		// C(n, i) = C(n, i-1) · (n-i+1)/i, computed with overflow care.
		if binom > (limit+1)*i/(n-i+1)+1 {
			return limit + 1
		}
		binom = binom * (n - i + 1) / i
		total += binom
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// PlacementSubtreeEnds returns, for each index i into a placement list in
// EnumeratePlacements' DFS preorder, the index one past the last placement
// that has configs[i] as a prefix. Because the enumeration emits a
// placement immediately before recursing into its extensions, every
// prefix's subtree is a contiguous index range [i, ends[i]) — the
// structural fact the hierarchical config-space pruning in internal/online
// is built on (see TestPlacementSubtreeEnds for the property pin).
func PlacementSubtreeEnds(configs []Placement) []int {
	ends := make([]int, len(configs))
	stack := make([]int, 0, 16)
	for i, c := range configs {
		// The stack holds the open prefixes, one per depth: entry at stack
		// position p has length p+1. A placement of length L closes every
		// open prefix of length ≥ L.
		for len(stack) >= len(c) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ends[top] = i
		}
		stack = append(stack, i)
	}
	for _, top := range stack {
		ends[top] = len(configs)
	}
	return ends
}

// EnumeratePlacements lists every non-empty active placement with at most
// maxServers servers, the configuration space tracked by ONCONF (which
// keeps its inactive servers out of the configurations, in the FIFO cache).
func EnumeratePlacements(n, maxServers int) []Placement {
	if maxServers <= 0 || maxServers > n {
		maxServers = n
	}
	var out []Placement
	var cur Placement
	var rec func(next int)
	rec = func(next int) {
		if len(cur) > 0 {
			out = append(out, cur.Clone())
		}
		if len(cur) == maxServers {
			return
		}
		for v := next; v < n; v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for _, s := range v {
		fmt.Fprint(&b, s)
	}
	b.WriteByte('>')
	return b.String()
}

package online

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// This file holds the machinery that breaks the configuration-space
// asymptotics for WFA, ONCONF and the offline OPT dynamic program:
//
//   - shapeTable buckets transition costs by set-difference shape, so the
//     dense C×C distance matrix (8·C² bytes, 32 GB at the nominal
//     MaxONCONFConfigs) collapses into a (k+1)×(k+1) table plus an
//     overlap-aware lookup per pair actually scored.
//   - WorkKernel is the one work-function minimisation over the subset
//     lattice: WFA's per-round update and OPT's per-round recurrence
//     (internal/offline) both call it.
//   - configCluster partitions the DFS-ordered configuration list into
//     coarse cells by server-set prefix, giving O(k)-time lower bounds on
//     the transition shape between whole groups of configurations. (The
//     same DFS order lets cost.ConfSweep find each configuration's parent
//     as the latest configuration one server shorter and derive its
//     minima from the parent's.)
//   - checkConfigSpace is the shared Reset guard, now reporting the memory
//     a space implies instead of a bare count, with the bound overridable
//     per algorithm (MaxConfigs / -maxconfigs).
//
// Every pruned scan built on these stays bit-identical to the naive full
// scan: the only candidates skipped are ones a sound lower bound proves
// cannot strictly improve the running minimum, and round-to-nearest float
// addition is monotone, so fl(a+lb) ≥ best with lb ≤ d and a ≤ scratch
// implies fl(scratch+d) ≥ best.

// shapeTable buckets reconfiguration costs by set-difference shape. The
// transition cost between two placements depends only on how many nodes
// enter and how many leave — at most (k+1)² distinct values.
type shapeTable struct {
	k1   int       // k+1, the table stride
	cost []float64 // cost[e*k1+l] = Transition(e entering, l leaving)
	// sufMin[e*k1+l] = min over e'≥e, l'≥l of cost[e'*k1+l']. Transition is
	// not monotone in the leaving count (when β < c an extra vacated server
	// turns a creation into a cheaper migration), so a sound bound for "at
	// least e enter and at least l leave" is the rectangle suffix minimum,
	// not the corner value.
	sufMin []float64
	// classMin[a*k1+b] = min over overlaps of the cost from any placement
	// of size a to any of size b, the coarsest per-pair lower bound.
	classMin []float64
}

func newShapeTable(p cost.Params, k int) *shapeTable {
	k1 := k + 1
	t := &shapeTable{
		k1:       k1,
		cost:     make([]float64, k1*k1),
		sufMin:   make([]float64, k1*k1),
		classMin: make([]float64, k1*k1),
	}
	for e := 0; e <= k; e++ {
		for l := 0; l <= k; l++ {
			t.cost[e*k1+l] = p.Transition(e, l)
		}
	}
	for e := k; e >= 0; e-- {
		for l := k; l >= 0; l-- {
			m := t.cost[e*k1+l]
			if e < k && t.sufMin[(e+1)*k1+l] < m {
				m = t.sufMin[(e+1)*k1+l]
			}
			if l < k && t.sufMin[e*k1+l+1] < m {
				m = t.sufMin[e*k1+l+1]
			}
			t.sufMin[e*k1+l] = m
		}
	}
	for a := 0; a <= k; a++ {
		for b := 0; b <= k; b++ {
			m := math.Inf(1)
			for o := 0; o <= a && o <= b; o++ {
				if c := t.cost[(b-o)*k1+(a-o)]; c < m {
					m = c
				}
			}
			t.classMin[a*k1+b] = m
		}
	}
	return t
}

// WorkKernel is the work-function minimisation WFA and the offline OPT
// dynamic program share:
//
//	dst(γ) = min over γ' of src(γ') + Transition(|γ∖γ'| entering, |γ'∖γ| leaving)
//
// over every set of at most k of n nodes. Sets are "classes": the
// placements of core.EnumeratePlacements(n, k) in its DFS order, then ∅ at
// index C. The cost depends only on the shape, so the minimum decomposes
// over the common subsets S ⊆ γ ∩ γ'. Every source relaxes, for each of its
// subsets S and each destination size b ≥ |S|, one slot holding
//
//	min over γ' ⊇ S of src(γ') + cost(b−|S| entering, |γ'|−|S| leaving),
//
// and every destination folds the slots of its own 2^|γ| subsets. A
// subset smaller than the true overlap overcharges (the shape cost along a
// diagonal never increases with overlap, and rounded addition is
// monotone); the exact overlap charges exactly. So the fold returns the
// full O(C²) scan's float minimum bit for bit, in O(Σ 2^|γ|·k) per call.
//
// A slot adds the shape cost before it takes its minimum, so every key in
// it is a true candidate sum. That lets the kernel also name the source
// exactly as a scan in a given order would, by a lexicographic (value,
// position in the order) minimum: a slot keeps the first source reaching
// its minimum, the sources reaching the fold's value through any slot are
// exactly the true minimisers, so the earliest of them is the scan's first
// minimiser. Taking the minimum of raw source values first would keep the
// value exact but could drop an earlier source whose larger value rounds
// to the same sum.
type WorkKernel struct {
	shape   *shapeTable
	ix      *placementIndexer
	workers int
	size    []uint8 // per class (∅ last)
	// Class S owns the slots base(S)+e for e = 0..k−|S|, one per
	// destination size |S|+e. sub[off[c]:off[c+1]] lists, for every subset
	// S of class c in ascending size (∅ first), the slot c folds:
	// base(S)+|c|−|S|. relax[part][t] lists the updates a source of size t
	// makes; each part owns whole (|S|, e) slot columns, so parts run
	// concurrently without sharing a slot.
	off   []int32
	sub   []int32
	relax [][][]relaxOp
	val   []float64 // slot minima
	arg   []int32   // per slot: order position of the first source reaching val (ordered calls)

	// Operands of the current Relax, read by the range kernels.
	src, dst          []float64
	order, from       []int32
	scatterFn, foldFn func(lo, hi int)
}

// relaxOp is one slot update of a source: the slot is sub[pos]+shift of
// the source's list, and add the shape cost added to its value.
type relaxOp struct {
	pos, shift int32
	add        float64
}

// NewWorkKernel builds the kernel for the reconfiguration costs p over the
// classes configs = core.EnumeratePlacements(n, k) (then ∅). Fan-outs use
// up to workers goroutines; zero or less selects GOMAXPROCS.
func NewWorkKernel(p cost.Params, configs []core.Placement, n, k, workers int) (*WorkKernel, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	C := len(configs)
	kn := &WorkKernel{shape: newShapeTable(p, k), ix: newPlacementIndexer(n, k), workers: workers}
	kn.size = make([]uint8, C+1)
	kn.off = make([]int32, C+2)
	base := make([]int32, C+1) // ∅'s k+1 slots come first
	slots, lattice := int64(k+1), int64(1)
	for c, pl := range configs {
		kn.size[c] = uint8(len(pl))
		base[c] = int32(slots)
		slots += int64(k - len(pl) + 1)
		lattice += int64(1) << uint(len(pl))
		if lattice > math.MaxInt32 || slots > math.MaxInt32 {
			return nil, fmt.Errorf("subset lattice of over %d entries exceeds 32-bit addressing", lattice)
		}
		kn.off[c+1] = int32(lattice - 1)
	}
	kn.off[C+1] = int32(lattice)
	kn.sub = make([]int32, lattice)
	// bySize[m] lists the subset masks of an m-set in ascending size: the
	// order of every subset list.
	bySize := make([][]uint, k+1)
	for m := range bySize {
		for o := 0; o <= m; o++ {
			for mask := uint(0); mask < 1<<uint(m); mask++ {
				if bits.OnesCount(mask) == o {
					bySize[m] = append(bySize[m], mask)
				}
			}
		}
	}
	kn.sub[kn.off[C]] = base[C] // ∅'s only subset is itself
	cost.ParallelChunks(C, C >= parallelGrain, func(lo, hi int) {
		buf := make(core.Placement, 0, k)
		for c := lo; c < hi; c++ {
			pl := configs[c]
			out := kn.sub[kn.off[c]:kn.off[c+1]]
			for pos, mask := range bySize[len(pl)] {
				buf = buf[:0]
				for b, v := range pl {
					if mask&(1<<uint(b)) != 0 {
						buf = append(buf, v)
					}
				}
				out[pos] = base[kn.IndexOf(buf)] + int32(len(pl)-len(buf))
			}
		}
	})
	parts := 1
	if C+1 >= 2*parallelGrain {
		parts = min(workers, (k+1)*(k+2)/2) // at most one part per slot column
	}
	kn.relax = make([][][]relaxOp, parts)
	for w := range kn.relax {
		kn.relax[w] = make([][]relaxOp, k+1)
	}
	for t, masks := range bySize {
		for pos, mask := range masks {
			o := bits.OnesCount(mask)
			column := o*(k+1) - o*(o-1)/2 // slot columns of smaller subsets
			for e := 0; e <= k-o; e++ {
				w := (column + e) % parts
				kn.relax[w][t] = append(kn.relax[w][t],
					relaxOp{pos: int32(pos), shift: int32(e - t + o), add: kn.shape.cost[e*(k+1)+t-o]})
			}
		}
	}
	kn.val = make([]float64, slots)
	kn.scatterFn, kn.foldFn = kn.scatter, kn.fold
	return kn, nil
}

// IndexOf returns the class of a sorted set of at most k nodes.
func (kn *WorkKernel) IndexOf(p core.Placement) int {
	if len(p) == 0 {
		return len(kn.size) - 1
	}
	return kn.ix.indexOf(p)
}

// Fan runs fn over [0, n) with the kernel's fan-out: up to its worker
// count, at least parallelGrain indexes per goroutine. fn should be a
// pre-bound function value, so the serial path stays allocation-free.
func (kn *WorkKernel) Fan(n int, fn func(lo, hi int)) {
	cost.ParallelChunksWorkers(n, kn.workers, parallelGrain, fn)
}

// Relax sets dst[γ] = min over γ' of src[γ'] + Transition(γ'→γ) for every
// class γ < len(src). src and dst hold C entries (∅ takes no part) or C+1.
// Sources at +Inf are skipped, so a destination no finite source reaches
// gets +Inf. A non-nil order ranks the sources (it lists every class below
// len(src) once); from[γ] then receives the first minimising source in that
// order, or -1 when there is none. Each slot and each destination is
// resolved independently, so the result does not depend on the worker
// count.
func (kn *WorkKernel) Relax(src []float64, order []int32, dst []float64, from []int32) {
	kn.src, kn.order, kn.dst, kn.from = src, order, dst, from
	for i := range kn.val {
		kn.val[i] = math.Inf(1)
	}
	if order != nil && kn.arg == nil {
		kn.arg = make([]int32, len(kn.val)) // read only where val is finite
	}
	cost.ParallelChunksWorkers(len(kn.relax), len(kn.relax), 1, kn.scatterFn)
	kn.Fan(len(dst), kn.foldFn)
}

// scatter runs the relax parts [lo, hi) over every finite source. Ordered
// calls visit the sources in their order, so with strict improvement a
// slot keeps the first source reaching its minimum.
func (kn *WorkKernel) scatter(lo, hi int) {
	val, order := kn.val, kn.order
	var arg []int32
	if order != nil {
		arg = kn.arg
	}
	for _, prog := range kn.relax[lo:hi] {
		for i := range kn.src {
			c := int32(i)
			if order != nil {
				c = order[i]
			}
			v := kn.src[c]
			if math.IsInf(v, 1) {
				continue
			}
			subs := kn.sub[kn.off[c]:kn.off[c+1]]
			for _, op := range prog[kn.size[c]] {
				if key, slot := v+op.add, subs[op.pos]+op.shift; key < val[slot] {
					val[slot] = key
					if arg != nil {
						arg[slot] = int32(i)
					}
				}
			}
		}
	}
}

// fold resolves destinations [lo, hi) from the slots of their subsets.
// Ordered calls break value ties between slots by order position.
func (kn *WorkKernel) fold(lo, hi int) {
	val, arg, order := kn.val, kn.arg, kn.order
	for j := lo; j < hi; j++ {
		best, pos := math.Inf(1), int32(math.MaxInt32)
		for _, slot := range kn.sub[kn.off[j]:kn.off[j+1]] {
			if v := val[slot]; v < best || v == best && order != nil && arg[slot] < pos {
				best = v
				if order != nil {
					pos = arg[slot]
				}
			}
		}
		kn.dst[j] = best
		if order != nil {
			kn.from[j] = -1
			if !math.IsInf(best, 1) {
				kn.from[j] = order[pos]
			}
		}
	}
}

// placementIndexer locates a placement's index in the DFS preorder of
// core.EnumeratePlacements in O(k), by skipping the subtrees of the
// siblings preceding each node of the placement.
type placementIndexer struct {
	k int
	// skip[q][u] = number of placements emitted by the subtrees of roots
	// 0..u-1 when q server slots remain.
	skip [][]int64
}

func newPlacementIndexer(n, k int) *placementIndexer {
	ix := &placementIndexer{k: k, skip: make([][]int64, k+1)}
	for q := 1; q <= k; q++ {
		row := make([]int64, n+1)
		for u := 0; u < n; u++ {
			row[u+1] = row[u] + placementSubtreeSize(n-u-1, q-1)
		}
		ix.skip[q] = row
	}
	return ix
}

// placementSubtreeSize is the number of placements in a subtree whose root
// is already placed, with r candidate nodes and q slots remaining:
// 1 + Σ_{t=1..q} C(r, t).
func placementSubtreeSize(r, q int) int64 {
	s, b := int64(1), int64(1)
	for t := 1; t <= q && t <= r; t++ {
		b = b * int64(r-t+1) / int64(t)
		s += b
	}
	return s
}

func (ix *placementIndexer) indexOf(p core.Placement) int {
	idx := int64(0)
	slots, next := ix.k, 0
	for pos, v := range p {
		idx += ix.skip[slots][v] - ix.skip[slots][next]
		if pos == len(p)-1 {
			return int(idx)
		}
		idx++ // the placement ending at v precedes its extensions
		slots--
		next = v + 1
	}
	return -1 // unreachable: placements are non-empty
}

// parallelGrain is the state count below which the fan-out loops stay
// serial (goroutine dispatch would dominate the per-round work), and the
// smallest chunk the kernel hands a goroutine.
const parallelGrain = 256

// configCluster is one cell of the hierarchical decomposition of the
// configuration space. core.EnumeratePlacements emits placements in DFS
// preorder over the parent-prefix tree, so every subtree is a contiguous
// index range; a cluster covers one subtree, a run of consecutive sibling
// subtrees, or a single split root. Every member γ satisfies
//
//	prefix ⊆ γ ⊆ prefix ∪ [minExtra, n)
//
// which yields O(k)-time lower bounds on the (entering, leaving) shape of
// any transition into or out of the cluster without touching members.
type configCluster struct {
	lo, hi   int            // member index range [lo, hi)
	prefix   core.Placement // nodes shared by every member (nil for top-level groups)
	minExtra int            // smallest node id a member may hold beyond the prefix
}

// wfaClusterCap bounds the cluster count so per-cluster state and the
// serial merge over cluster results stay cheap relative to the members.
const wfaClusterCap = 4096

// buildClusters decomposes the DFS-ordered configuration list into at most
// wfaClusterCap clusters, each covering roughly C/1024 configurations.
// Clusters are emitted in ascending index order and tile [0, C) exactly.
func buildClusters(configs []core.Placement, n int) []configCluster {
	ends := core.PlacementSubtreeEnds(configs)
	target := len(configs) / 1024
	if target < 64 {
		target = 64
	}
	cl := clusterConfigs(configs, ends, n, target)
	for len(cl) > wfaClusterCap {
		target *= 2
		cl = clusterConfigs(configs, ends, n, target)
	}
	return cl
}

func clusterConfigs(configs []core.Placement, ends []int, n, target int) []configCluster {
	var out []configCluster
	var pack func(prefix core.Placement, lo, hi int)
	pack = func(prefix core.Placement, lo, hi int) {
		for i := lo; i < hi; {
			if sz := ends[i] - i; sz > target {
				// Subtree too big for one cell: its root becomes an exact
				// singleton cluster (it has no nodes beyond its own prefix,
				// so minExtra = n makes the bounds exact) and the children
				// are packed under the root's longer prefix.
				out = append(out, configCluster{lo: i, hi: i + 1, prefix: configs[i], minExtra: n})
				pack(configs[i], i+1, ends[i])
				i = ends[i]
				continue
			}
			// Group consecutive small sibling subtrees under the shared
			// parent prefix. Members beyond that prefix use only nodes ≥
			// the first sibling's own node (later siblings and their
			// extensions have strictly larger node ids).
			glo, total := i, 0
			for i < hi {
				sz := ends[i] - i
				if sz > target || (total > 0 && total+sz > target) {
					break
				}
				total += sz
				i = ends[i]
			}
			first := configs[glo]
			out = append(out, configCluster{lo: glo, hi: i, prefix: prefix, minExtra: first[len(first)-1]})
		}
	}
	pack(nil, 0, len(configs))
	return out
}

// prefixBounds returns lower bounds on the set differences between any
// member of the cluster and the placement c: uncovered counts the nodes of
// c no member can hold (outside the prefix and below minExtra), missing
// counts the prefix nodes absent from c (held by every member). For a
// transition member → c this bounds (entering, leaving) by (uncovered,
// missing); for c → member it bounds them by (missing, uncovered).
func (cl *configCluster) prefixBounds(c core.Placement) (uncovered, missing int) {
	p := cl.prefix
	pi := 0
	for _, v := range c {
		for pi < len(p) && p[pi] < v {
			missing++
			pi++
		}
		if pi < len(p) && p[pi] == v {
			pi++
			continue
		}
		if v < cl.minExtra {
			uncovered++
		}
	}
	missing += len(p) - pi
	return uncovered, missing
}

// confSpace is the configuration space ONCONF and WFA track: the
// placements of at most k servers, the current one's index, the access
// sweep, per-configuration running costs, and the prefix clusters with a
// scratch minimum each.
type confSpace struct {
	configs  []core.Placement
	cur      int
	sweep    *cost.ConfSweep
	runCost  []float64
	clusters []configCluster
	cMin     []float64
}

// init enumerates env's space under server bound k; it fails when that
// exceeds bound (0: MaxONCONFConfigs) or misses the start placement.
func (s *confSpace) init(alg, hint string, env *sim.Env, k, bound int) error {
	n := env.Graph.N()
	if bound <= 0 {
		bound = MaxONCONFConfigs
	}
	if err := checkConfigSpace(alg, hint, n, k, bound); err != nil {
		return err
	}
	s.configs = core.EnumeratePlacements(n, k)
	if s.cur = slices.IndexFunc(s.configs, env.Start.Equal); s.cur < 0 {
		return fmt.Errorf("%s: initial placement %v not in configuration space", alg, env.Start)
	}
	s.runCost = make([]float64, len(s.configs))
	for i, c := range s.configs {
		s.runCost[i] = env.Costs.Run(c.Len(), 0)
	}
	s.sweep = cost.NewConfSweep(env.Eval, s.configs)
	s.clusters = buildClusters(s.configs, n)
	s.cMin = make([]float64, len(s.clusters))
	return nil
}

// checkConfigSpace guards a Reset against enumerating an intractable
// configuration space. Unlike the old guard, which named only the count,
// the error reports the memory the space implies: the rewritten algorithms
// hold O(C) state (the dense O(C²) transition matrix is gone — it needed
// 32 GB at the nominal 2¹⁶-config bound before the old guard even
// tripped), so the caller can judge whether raising the bound fits.
func checkConfigSpace(alg, hint string, n, k, bound int) error {
	if core.CountPlacements(n, k, bound) <= bound {
		return nil
	}
	const probe = 1 << 40
	full := core.CountPlacements(n, k, probe)
	count := fmt.Sprintf("%d", full)
	if full > probe {
		count = "over 2^40"
	}
	// ≈(106 + 24k + 4·2^k) bytes per configuration, an upper estimate for
	// WFA (ONCONF holds less): the placement (24 + 8k), five per-config
	// floats (work, scratch, running cost, the round's access totals and
	// latencies: 40), the sweep's flattened nodes, offset and link
	// (24 + 8k), and the work-function kernel's sizes and offsets (9),
	// subset lattice (up to 2^k int32 entries) and slot values (at most
	// k+1 float64s).
	linear := float64(full) * (106 + 24*float64(k) + 4*math.Pow(2, float64(k)))
	dense := 8 * float64(full) * float64(full)
	return fmt.Errorf("%s: configuration space of %s placements (n=%d, k=%d) exceeds the bound %d: tracking it takes ≈%s of O(C) state (a dense C² transition matrix would need %s)%s — raise MaxConfigs (figures/flexserve -maxconfigs) if the O(C) footprint fits",
		alg, count, n, k, bound, humanBytes(linear), humanBytes(dense), hint)
}

func humanBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	return fmt.Sprintf("%.1f %s", b, units[i])
}

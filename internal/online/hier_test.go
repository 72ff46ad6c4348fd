package online

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPlacementIndexer pins the O(k) combinatorial index against the
// enumeration itself: every placement must locate its own DFS position.
func TestPlacementIndexer(t *testing.T) {
	cases := []struct{ n, k int }{
		{1, 1}, {3, 2}, {6, 3}, {8, 8}, {10, 4}, {12, 2},
	}
	for _, tc := range cases {
		configs := core.EnumeratePlacements(tc.n, tc.k)
		ix := newPlacementIndexer(tc.n, tc.k)
		for i, c := range configs {
			if got := ix.indexOf(c); got != i {
				t.Fatalf("n=%d k=%d: indexOf(%v) = %d, want %d", tc.n, tc.k, c, got, i)
			}
		}
	}
}

// TestShapeTableSound brute-forces the shape table's definitions for both
// cost regimes (β < c, where extra vacated servers make transitions
// cheaper, and β ≥ c, where migration never pays).
func TestShapeTableSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		p := cost.Params{Beta: 1 + 10*rng.Float64(), Create: 1 + 10*rng.Float64()}
		k := 1 + rng.Intn(5)
		tab := newShapeTable(p, k)
		k1 := k + 1
		for e := 0; e <= k; e++ {
			for l := 0; l <= k; l++ {
				if got, want := tab.cost[e*k1+l], p.Transition(e, l); got != want {
					t.Fatalf("cost[%d][%d] = %v, want %v", e, l, got, want)
				}
				want := math.Inf(1)
				for e2 := e; e2 <= k; e2++ {
					for l2 := l; l2 <= k; l2++ {
						if c := p.Transition(e2, l2); c < want {
							want = c
						}
					}
				}
				if got := tab.sufMin[e*k1+l]; got != want {
					t.Fatalf("sufMin[%d][%d] = %v, want %v (β=%v c=%v)", e, l, got, want, p.Beta, p.Create)
				}
			}
		}
		for a := 0; a <= k; a++ {
			for b := 0; b <= k; b++ {
				want := math.Inf(1)
				for o := 0; o <= a && o <= b; o++ {
					if c := p.Transition(b-o, a-o); c < want {
						want = c
					}
				}
				if got := tab.classMin[a*k1+b]; got != want {
					t.Fatalf("classMin[%d][%d] = %v, want %v", a, b, got, want)
				}
			}
		}
	}
}

// TestBuildClustersInvariants checks the hierarchical decomposition's
// contract on several spaces: clusters tile [0, C) in order, every member
// satisfies prefix ⊆ γ ⊆ prefix ∪ [minExtra, n), and prefixBounds is a
// sound lower bound on the set-difference shape against random placements.
func TestBuildClustersInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := []struct{ n, k int }{
		{5, 2}, {9, 3}, {12, 4}, {14, 14},
	}
	for _, tc := range cases {
		configs := core.EnumeratePlacements(tc.n, tc.k)
		clusters := buildClusters(configs, tc.n)
		next := 0
		for ci := range clusters {
			cl := &clusters[ci]
			if cl.lo != next || cl.hi <= cl.lo {
				t.Fatalf("n=%d k=%d: cluster %d spans [%d,%d), want lo=%d", tc.n, tc.k, ci, cl.lo, cl.hi, next)
			}
			next = cl.hi
			for i := cl.lo; i < cl.hi; i++ {
				c := configs[i]
				pi := 0
				for _, v := range c {
					if pi < len(cl.prefix) && cl.prefix[pi] == v {
						pi++
					} else if v < cl.minExtra {
						t.Fatalf("n=%d k=%d: member %v of cluster %d holds %d outside prefix %v below minExtra %d",
							tc.n, tc.k, c, ci, v, cl.prefix, cl.minExtra)
					}
				}
				if pi != len(cl.prefix) {
					t.Fatalf("n=%d k=%d: member %v of cluster %d misses prefix %v", tc.n, tc.k, c, ci, cl.prefix)
				}
			}
			for trial := 0; trial < 10; trial++ {
				probe := configs[rng.Intn(len(configs))]
				unc, mis := cl.prefixBounds(probe)
				for i := cl.lo; i < cl.hi; i++ {
					e, l := configs[i].DiffSize(probe) // member → probe
					if e < unc || l < mis {
						t.Fatalf("n=%d k=%d: cluster %d bounds (%d,%d) exceed member %v → %v shape (%d,%d)",
							tc.n, tc.k, ci, unc, mis, configs[i], probe, e, l)
					}
				}
			}
		}
		if next != len(configs) {
			t.Fatalf("n=%d k=%d: clusters end at %d, want %d", tc.n, tc.k, next, len(configs))
		}
	}
}

// TestWFAWorkerCountParity pins worker-count invariance on a space large
// enough to cross the parallel threshold (n=13, k=4: 1092 configurations):
// WFA and ONCONF must produce identical ledgers, final placements, and
// work functions / counters at 1, 2, and all available workers.
func TestWFAWorkerCountParity(t *testing.T) {
	g, err := gen.ErdosRenyi(13, 0.35, gen.DefaultOptions(), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(),
		core.Params{QueueCap: 3, Expiry: 15, MaxServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric,
		workload.CommuterConfig{T: 4, Lambda: 20}, 30)
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	var refLedger *sim.Ledger
	var refWork []float64
	var refCounters []float64
	for _, w := range workers {
		prev := runtime.GOMAXPROCS(w)
		a := NewWFA()
		got, err := sim.Run(env, a, seq)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		o := NewONCONF(rand.New(rand.NewSource(9)))
		gotO, err := sim.Run(env, o, seq)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if refLedger == nil {
			refLedger, refWork, refCounters = got, a.work, o.counters
			continue
		}
		ledgersIdentical(t, w, got, refLedger)
		for i := range a.work {
			if a.work[i] != refWork[i] {
				t.Fatalf("workers=%d: work[%d] = %v, 1-worker %v", w, i, a.work[i], refWork[i])
			}
		}
		for i := range o.counters {
			if o.counters[i] != refCounters[i] {
				t.Fatalf("workers=%d: counter[%d] = %v, 1-worker %v", w, i, o.counters[i], refCounters[i])
			}
		}
		_ = gotO
	}
}

// TestWFAPrunedScanPerRoundParity steps the shape-bucketed WFA and the
// retained dense-matrix reference side by side, comparing the full work
// function and the chosen placement after every single round — a much
// tighter pin than end-of-run parity, since a masked round-level
// divergence cannot cancel out.
func TestWFAPrunedScanPerRoundParity(t *testing.T) {
	rng := rand.New(rand.NewSource(514))
	for trial := 0; trial < 4; trial++ {
		env, seq := parityEnv(t, rng, cost.Linear{})
		a, ref := NewWFA(), &naiveWFA{}
		if err := a.Reset(env); err != nil {
			t.Fatal(err)
		}
		if err := ref.Reset(env); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < seq.Len(); r++ {
			d := seq.Demand(r)
			a.Observe(r, d, cost.AccessCost{})
			ref.Observe(r, d, cost.AccessCost{})
			if !a.Placement().Equal(ref.Placement()) {
				t.Fatalf("trial %d round %d: placement %v != naive %v", trial, r, a.Placement(), ref.Placement())
			}
			for i := range a.work {
				if a.work[i] != ref.work[i] {
					t.Fatalf("trial %d round %d: work[%d] = %v, naive %v (config %v)",
						trial, r, i, a.work[i], ref.work[i], a.configs[i])
				}
			}
		}
	}
}

// TestWFADisconnectedLargeSpaceParity is the disconnected-substrate pin at
// a scale that crosses the parallel threshold (16 nodes, k=3: 696
// configurations), so the infeasibility sentinel flows through the
// shape-bucketed update and the pruned, fanned-out move rule.
func TestWFADisconnectedLargeSpaceParity(t *testing.T) {
	g := graph.New(16)
	for v := 0; v < 7; v++ { // component {0..7}: a line
		g.MustAddEdge(v, v+1, 1, 1)
	}
	for v := 8; v < 15; v++ { // component {8..15}: a line
		g.MustAddEdge(v, v+1, 1, 1)
	}
	m := g.AllPairs()
	costs := cost.Params{Beta: 5, Create: 20, RunActive: 1, RunInactive: 0.2}
	env := &sim.Env{
		Graph:  g,
		Metric: m,
		Eval:   cost.NewEvaluator(g, m, cost.Linear{}, cost.AssignMinCost),
		Costs:  costs,
		Pool:   core.Params{Costs: costs, QueueCap: 3, Expiry: 15, MaxServers: 3},
		Start:  core.NewPlacement(2),
	}
	demands := make([]cost.Demand, 40)
	for i := range demands {
		// Single-unit demand walking component {0..7}: every placement
		// confined to {8..15} sees exactly one unreachable unit — a finite
		// graph.Infinity latency the feasibility rule must catch.
		demands[i] = cost.DemandFromPairs(cost.NodeCount{Node: (i * 3) % 8, Count: 1})
	}
	seq := workload.NewSequence("disconnected-large", demands)
	a, ref := NewWFA(), &naiveWFA{}
	got, err := sim.Run(env, a, seq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(env, ref, seq)
	if err != nil {
		t.Fatal(err)
	}
	ledgersIdentical(t, 0, got, want)
	for i := range a.work {
		if a.work[i] != ref.work[i] {
			t.Fatalf("work[%d] = %v, naive %v (config %v)", i, a.work[i], ref.work[i], a.configs[i])
		}
	}
}

// TestWorkKernelMatchesBruteForce pins the kernel to a scan over every
// source set: the value must be bit-identical and, with an order, the
// source the first minimiser in that order. Inputs mix in ∅ (size-0
// sources and destinations), +Inf sources, sources drawn from a few values
// (exact ties broken by the order), and both cost regimes, with one worker
// and with four; the last two inputs are large enough for four to fan out.
func TestWorkKernelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 62; trial++ {
		n := 1 + rng.Intn(7)
		k := 1 + rng.Intn(n)
		if trial >= 60 {
			n, k = 13, 4 // 1093 classes: the parallel scatter and fold run
		}
		p := cost.Params{Beta: float64(1 + rng.Intn(20)), Create: float64(1 + rng.Intn(20))}
		if trial%3 == 0 {
			p = cost.Params{Beta: 0.1 + rng.Float64(), Create: 0.1 + rng.Float64()}
		}
		configs := core.EnumeratePlacements(n, k)
		sets := append(append([]core.Placement(nil), configs...), core.Placement{})
		if trial%2 == 1 {
			sets = sets[:len(configs)] // ∅ neither source nor destination
		}
		values := []float64{0, 1, 2.5, 7, 1e3 * rng.Float64(), math.Inf(1)}
		src := make([]float64, len(sets))
		for i := range src {
			src[i] = values[rng.Intn(len(values))]
		}
		order := make([]int32, len(sets))
		for i, c := range rng.Perm(len(sets)) {
			order[i] = int32(c)
		}
		for _, workers := range []int{1, 4} {
			kn, err := NewWorkKernel(p, configs, n, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkWorkKernel(t, kn, p, sets, src, order)
			checkWorkKernel(t, kn, p, sets, src, nil)
		}
	}
}

// TestWorkKernelFirstSourceSurvivesRounding pins the case that forces the
// kernel to add the shape cost before taking a slot's minimum: two sources
// whose values differ by one ulp reach a destination at the same rounded
// sum, and the one with the larger value comes first in the order. Taking
// the minimum of the raw values first would keep only the smaller value
// and report the later source.
func TestWorkKernelFirstSourceSurvivesRounding(t *testing.T) {
	p := cost.DefaultParams() // β=40 < c=400
	configs := core.EnumeratePlacements(3, 1)
	kn, err := NewWorkKernel(p, configs, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := append(append([]core.Placement(nil), configs...), core.Placement{})
	src := []float64{math.Nextafter(1000, 2000), 1000, math.Inf(1), math.Inf(1)}
	if src[0]+p.Beta != src[1]+p.Beta {
		t.Fatal("the two sources must round to the same sum")
	}
	order := []int32{0, 1, 2, 3}
	checkWorkKernel(t, kn, p, sets, src, order)
	from := make([]int32, len(src))
	kn.Relax(src, order, make([]float64, len(src)), from)
	if from[2] != 0 {
		t.Fatalf("destination {2} resolved to source %d, want the first source 0", from[2])
	}
}

// checkWorkKernel compares one Relax against the brute-force scan over
// the sources in order (class order when order is nil), which keeps the
// first minimiser.
func checkWorkKernel(t *testing.T, kn *WorkKernel, p cost.Params, sets []core.Placement, src []float64, order []int32) {
	t.Helper()
	dst := make([]float64, len(src))
	from := make([]int32, len(src))
	kn.Relax(src, order, dst, from)
	for j, to := range sets {
		best, arg := math.Inf(1), int32(-1)
		for r := range sets {
			i := int32(r)
			if order != nil {
				i = order[r]
			}
			if math.IsInf(src[i], 1) {
				continue
			}
			entering, leaving := sets[i].DiffSize(to)
			if v := src[i] + p.Transition(entering, leaving); v < best {
				best, arg = v, i
			}
		}
		if dst[j] != best {
			t.Fatalf("dst[%v] = %v, brute force %v", to, dst[j], best)
		}
		if order != nil && from[j] != arg {
			t.Fatalf("from[%v] = %d, brute force %d (value %v)", to, from[j], arg, best)
		}
	}
}

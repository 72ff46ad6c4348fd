package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

func TestVectorCounts(t *testing.T) {
	v := Vector{StateActive, StateNone, StateInactive, StateActive}
	a, i := v.Counts()
	if a != 2 || i != 1 {
		t.Fatalf("Counts = %d,%d, want 2,1", a, i)
	}
}

func TestVectorPlacementAndMasks(t *testing.T) {
	v := Vector{StateActive, StateNone, StateInactive, StateActive}
	if !v.ActivePlacement().Equal(Placement{0, 3}) {
		t.Fatalf("ActivePlacement = %v", v.ActivePlacement())
	}
	if v.ActiveMask() != 0b1001 {
		t.Fatalf("ActiveMask = %b", v.ActiveMask())
	}
	if v.OccupiedMask() != 0b1101 {
		t.Fatalf("OccupiedMask = %b", v.OccupiedMask())
	}
}

func TestVectorRunCost(t *testing.T) {
	p := cost.DefaultParams() // Ra=2.5, Ri=0.5
	v := Vector{StateActive, StateInactive, StateInactive}
	if got := v.RunCost(p); got != 3.5 {
		t.Fatalf("RunCost = %v, want 3.5", got)
	}
}

func TestTransitionCostExamples(t *testing.T) {
	p := cost.DefaultParams() // β=40, c=400
	mk := func(states ...ServerState) Vector { return Vector(states) }
	const (
		N = StateNone
		I = StateInactive
		A = StateActive
	)
	cases := []struct {
		name     string
		from, to Vector
		want     float64
	}{
		{"no change", mk(A, N, I), mk(A, N, I), 0},
		{"flip in place free", mk(A, I, N), mk(I, A, N), 0},
		{"delete free", mk(A, A, N), mk(A, N, N), 0},
		{"create one", mk(A, N, N), mk(A, A, N), 400},
		{"migrate one", mk(A, A, N), mk(A, N, A), 40},
		{"migrate inactive", mk(A, I, N), mk(A, N, A), 40},
		{"two new one vacated", mk(A, A, N, N), mk(A, N, A, A), 440},
	}
	for _, c := range cases {
		if got := TransitionCost(p, c.from, c.to); got != c.want {
			t.Errorf("%s: TransitionCost = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTransitionCostMasksAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := cost.DefaultParams()
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		from, to := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			from[i] = ServerState(rng.Intn(3))
			to[i] = ServerState(rng.Intn(3))
		}
		if TransitionCost(p, from, to) != TransitionCostMasks(p, from.OccupiedMask(), to.OccupiedMask()) {
			t.Fatalf("mask and vector transition costs disagree for %v -> %v", from, to)
		}
	}
}

func TestTransitionCostSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TransitionCost(cost.DefaultParams(), NewVector(2), NewVector(3))
}

func TestEnumerateVectorsCountsSmall(t *testing.T) {
	// n=2, k=2: states per node {N,I,A} minus total-servers > 2 (none) =
	// 9 states; with minActive=1: drop the 4 with no active = 5.
	all := EnumerateVectors(2, 2, 0)
	if len(all) != 9 {
		t.Fatalf("EnumerateVectors(2,2,0) = %d states, want 9", len(all))
	}
	act := EnumerateVectors(2, 2, 1)
	if len(act) != 5 {
		t.Fatalf("EnumerateVectors(2,2,1) = %d states, want 5", len(act))
	}
}

func TestEnumerateVectorsServerBound(t *testing.T) {
	for _, v := range EnumerateVectors(4, 2, 0) {
		a, i := v.Counts()
		if a+i > 2 {
			t.Fatalf("state %v exceeds server bound", v)
		}
	}
	// Full space for n=3, unbounded k: 3^3 = 27.
	if got := len(EnumerateVectors(3, 0, 0)); got != 27 {
		t.Fatalf("full enumeration = %d, want 27", got)
	}
}

func TestEnumerateVectorsUnique(t *testing.T) {
	seen := map[[2]uint64]bool{}
	for _, v := range EnumerateVectors(5, 3, 0) {
		e := [2]uint64{v.ActiveMask(), v.OccupiedMask()}
		if seen[e] {
			t.Fatalf("duplicate state %v", v)
		}
		seen[e] = true
	}
}

func TestEnumeratePlacements(t *testing.T) {
	// n=3, k=2: C(3,1)+C(3,2) = 3+3 = 6 placements.
	ps := EnumeratePlacements(3, 2)
	if len(ps) != 6 {
		t.Fatalf("EnumeratePlacements(3,2) = %d, want 6", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Len() == 0 || p.Len() > 2 {
			t.Fatalf("placement %v out of bounds", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate placement %v", p)
		}
		seen[p.Key()] = true
	}
	// Unbounded k covers all non-empty subsets: 2^3 − 1 = 7.
	if got := len(EnumeratePlacements(3, 0)); got != 7 {
		t.Fatalf("unbounded = %d, want 7", got)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{StateActive, StateNone, StateInactive}
	if v.String() != "<A-i>" {
		t.Fatalf("String = %q", v.String())
	}
	if ServerState(9).String() != "?" {
		t.Fatal("unknown state must render as ?")
	}
}

package graph

import (
	"math"
	"slices"
	"testing"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	for v := 0; v < 5; v++ {
		if got := g.Strength(v); got != DefaultStrength {
			t.Errorf("Strength(%d) = %v, want %v", v, got, DefaultStrength)
		}
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestNewGraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1, 2.5, BandwidthT1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	e, ok := g.EdgeBetween(1, 0)
	if !ok {
		t.Fatal("EdgeBetween(1,0) not found")
	}
	if e.Latency != 2.5 || e.Bandwidth != BandwidthT1 {
		t.Fatalf("edge attributes = %+v", e)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	cases := []struct {
		name    string
		u, v    int
		lat, bw float64
	}{
		{"self loop", 1, 1, 1, 1},
		{"out of range low", -1, 0, 1, 1},
		{"out of range high", 0, 3, 1, 1},
		{"duplicate", 0, 1, 1, 1},
		{"duplicate reversed", 1, 0, 1, 1},
		{"zero latency", 1, 2, 0, 1},
		{"negative latency", 1, 2, -1, 1},
		{"NaN latency", 1, 2, math.NaN(), 1},
		{"inf latency", 1, 2, math.Inf(1), 1},
		{"negative bandwidth", 1, 2, 1, -1},
		{"NaN bandwidth", 1, 2, 1, math.NaN()},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.lat, c.bw); err == nil {
			t.Errorf("%s: AddEdge(%d,%d,%v,%v) succeeded, want error", c.name, c.u, c.v, c.lat, c.bw)
		}
	}
}

func TestSetStrength(t *testing.T) {
	g := New(2)
	g.SetStrength(1, 4)
	if g.Strength(1) != 4 {
		t.Fatalf("Strength(1) = %v, want 4", g.Strength(1))
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetStrength(%v) did not panic", bad)
				}
			}()
			g.SetStrength(0, bad)
		}()
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	if g.Connected() {
		t.Fatal("4 isolated nodes reported connected")
	}
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	g.MustAddEdge(1, 2, 1, 1)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
	if New(0).Connected() != true || New(1).Connected() != true {
		t.Fatal("trivial graphs must be connected")
	}
}

func TestValidate(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	if err := g.Validate(); err != ErrDisconnected {
		t.Fatalf("Validate() = %v, want ErrDisconnected", err)
	}
	g.MustAddEdge(1, 2, 1, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge returned true")
	}
	if _, ok := g.EdgeBetween(-1, 0); ok {
		t.Fatal("out-of-range EdgeBetween returned true")
	}
}

func TestStringer(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1, 1)
	if got, want := g.String(), "graph{n=2 m=1}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// line builds a path graph with the given per-hop latencies.
func line(lat ...float64) *Graph {
	g := New(len(lat) + 1)
	for i, l := range lat {
		g.MustAddEdge(i, i+1, l, 1)
	}
	return g
}

func TestShortestFromLine(t *testing.T) {
	g := line(1, 2, 3) // 0-1-2-3 with latencies 1,2,3
	dist := g.ShortestFrom(0)
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
}

func TestShortestFromPrefersLowLatency(t *testing.T) {
	// Triangle where the direct edge is more expensive than the detour.
	g := New(3)
	g.MustAddEdge(0, 2, 10, 1)
	g.MustAddEdge(0, 1, 2, 1)
	g.MustAddEdge(1, 2, 3, 1)
	dist := g.ShortestFrom(0)
	if dist[2] != 5 {
		t.Fatalf("dist[2] = %v, want 5 (detour over node 1)", dist[2])
	}
}

func TestShortestFromDisconnected(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	dist := g.ShortestFrom(0)
	if dist[2] != Infinity {
		t.Fatalf("dist[2] = %v, want Infinity", dist[2])
	}
}

func TestEccentricityAndCenter(t *testing.T) {
	g := line(1, 1, 1, 1) // path of 5 nodes
	m := g.Metric()
	if ecc := slices.Max(m.Row(0)); ecc != 4 {
		t.Fatalf("eccentricity of node 0 = %v, want 4", ecc)
	}
	if ecc := slices.Max(m.Row(2)); ecc != 2 {
		t.Fatalf("eccentricity of node 2 = %v, want 2", ecc)
	}
	if c := CenterOf(m); c != 2 {
		t.Fatalf("CenterOf = %d, want 2", c)
	}
}

func TestCenterEmpty(t *testing.T) {
	if c := CenterOf(New(0).Metric()); c != -1 {
		t.Fatalf("center of empty graph = %d, want -1", c)
	}
}

package graph

import "testing"

func TestMetricCachesAllPairs(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	m1 := g.Metric()
	if m2 := g.Metric(); m2 != m1 {
		t.Fatal("Metric recomputed the matrix despite a warm cache")
	}
	if m := g.AllPairs(); g.Metric() != m {
		t.Fatal("Metric did not adopt the matrix AllPairs just computed")
	}
	// An edge mutation must invalidate the cache.
	old := g.Metric()
	g.MustAddEdge(0, 3, 0.5, 1)
	m3 := g.Metric()
	if m3 == old {
		t.Fatal("Metric returned a stale matrix after AddEdge")
	}
	if d := m3.Dist(0, 3); d != 0.5 {
		t.Fatalf("Dist(0,3) = %v after new edge, want 0.5", d)
	}
}

// TestSparseInvalidationOnAddEdge pins the mutation half of the Metric
// contract for the sparse backend: AddEdge moves Graph.Version, the next
// query drops every cached row and recomputes against the new topology,
// and rows taken before the mutation keep their pre-mutation contents.
func TestSparseInvalidationOnAddEdge(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	s := NewSparse(g, 8)
	before := s.Row(0)
	if d := before[3]; d != 3 {
		t.Fatalf("Dist(0,3) on the line = %v, want 3", d)
	}
	s.Row(1) // a second resident row, to check the whole cache is dropped

	g.MustAddEdge(0, 3, 0.5, 1)
	if d := s.Dist(0, 3); d != 0.5 {
		t.Fatalf("Dist(0,3) after shortcut = %v, want 0.5 (stale cache?)", d)
	}
	if d := s.Dist(1, 3); d != 1.5 {
		t.Fatalf("Dist(1,3) after shortcut = %v, want 1.5 via 1-0-3 (stale cache?)", d)
	}
	if before[3] != 3 {
		t.Fatalf("row taken before AddEdge changed to %v, must keep 3", before[3])
	}
}

// TestLandmarkInvalidationOnAddEdge: the landmark table is rebuilt after
// a mutation, so the bound observes the new edge. Node 0 is always the
// first landmark, so the 0–3 shortcut makes the bound for (0,3) exact.
func TestLandmarkInvalidationOnAddEdge(t *testing.T) {
	g := New(6)
	for v := 0; v+1 < 6; v++ {
		g.MustAddEdge(v, v+1, 1, 1)
	}
	l := NewLandmark(g, 2)
	if d := l.Dist(0, 3); d != 3 {
		t.Fatalf("bound(0,3) on the line = %v, want 3", d)
	}
	g.MustAddEdge(0, 3, 0.5, 1)
	if d := l.Dist(0, 3); d != 0.5 {
		t.Fatalf("bound(0,3) after shortcut = %v, want 0.5 (stale landmark table?)", d)
	}
}

// TestLandmarkExactModeInvalidation: the exact (k >= n) delegate follows
// the same contract through its embedded sparse cache.
func TestLandmarkExactModeInvalidation(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2, 1)
	g.MustAddEdge(1, 2, 2, 1)
	g.MustAddEdge(2, 3, 2, 1)
	l := NewLandmark(g, 4)
	if d := l.Dist(0, 3); d != 6 {
		t.Fatalf("Dist(0,3) = %v, want 6", d)
	}
	g.MustAddEdge(0, 3, 1, 1)
	if d := l.Dist(0, 3); d != 1 {
		t.Fatalf("Dist(0,3) after shortcut = %v, want 1 (stale cache?)", d)
	}
}

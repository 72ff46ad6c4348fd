package serve

import (
	"path/filepath"
	"testing"
)

// BenchmarkServeIngest measures the full admission path of one request:
// validation, admission control, WAL append (flushed to the OS), and
// enqueue — the per-request cost an operator sizes the ingest tier by.
// The consumer stays off so the engine's round cost is not mixed in.
func BenchmarkServeIngest(b *testing.B) {
	s, err := New(Config{
		NewStream:   testFactory(b),
		Fingerprint: "bench-ingest",
		QueueCap:    b.N + 16,
		Dir:         b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.queue.Close()
	n := s.n()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Ingest(Request{Node: i % n, Count: 1, Class: Critical}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures one atomic checkpoint write (snapshot,
// temp file, fsync, rename) of a warmed-up engine.
func BenchmarkCheckpoint(b *testing.B) {
	const rounds = 30
	_, seq := testSequence(b, rounds)
	st, err := testFactory(b)()
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(st, 1<<30, DefaultKeepRounds)
	for i := 0; i < rounds; i++ {
		for _, p := range seq.Demand(i).Pairs() {
			e.Apply(Entry{Node: p.Node, Count: p.Count})
		}
		if out := e.Apply(TickEntry()); !out.Served {
			b.Fatalf("round %d not served", i)
		}
	}
	path := filepath.Join(b.TempDir(), CheckpointName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := checkpointOf(e, "bench-ckpt")
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteCheckpoint(path, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRound measures one served round end to end (window fold +
// algorithm + ledger) at a fixed demand size.
func BenchmarkEngineRound(b *testing.B) {
	const rounds = 30
	_, seq := testSequence(b, rounds)
	st, err := testFactory(b)()
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(st, 1<<30, DefaultKeepRounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range seq.Demand(i % rounds).Pairs() {
			e.Apply(Entry{Node: p.Node, Count: p.Count})
		}
		e.Apply(TickEntry())
	}
}

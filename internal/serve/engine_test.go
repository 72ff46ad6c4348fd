package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/online"
	"repro/internal/sim"
)

// feedRound pushes one batch round's demand into the engine as individual
// arrival entries and closes it with a tick, returning the tick outcome.
func feedRound(t *testing.T, e *Engine, d cost.Demand) RoundOutcome {
	t.Helper()
	for _, p := range d.Pairs() {
		if out := e.Apply(Entry{Node: p.Node, Count: p.Count}); out.Closed() {
			t.Fatal("arrival closed the window under an unbounded window size")
		}
	}
	return e.Apply(TickEntry())
}

// TestEngineTickParityWithBatch pins the tentpole invariant: feeding a
// batch sequence through the streaming engine round by round (arrivals
// then a tick) produces bit-identical round costs and totals to serving
// the same sequence directly through sim.Stream.
func TestEngineTickParityWithBatch(t *testing.T) {
	const rounds = 40
	_, seq := testSequence(t, rounds)

	batch, err := testFactory(t)()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sim.RoundCost, 0, rounds)
	for i := 0; i < rounds; i++ {
		rc, err := batch.Serve(seq.Demand(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rc)
	}

	st, err := testFactory(t)()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 1<<30, rounds)
	for i := 0; i < rounds; i++ {
		out := feedRound(t, e, seq.Demand(i))
		if !out.Served {
			t.Fatalf("round %d: tick did not serve: %+v", i, out)
		}
		if out.Cost != want[i] {
			t.Fatalf("round %d diverged:\n  stream %+v\n  batch  %+v", i, out.Cost, want[i])
		}
	}
	if got, want := totalsToBits(e.Totals()), totalsToBits(batch.Ledger().Totals); got != want {
		t.Fatalf("totals diverged bitwise: %v vs %v", got, want)
	}
	recent := e.RecentRounds()
	if len(recent) != rounds {
		t.Fatalf("ring kept %d of %d rounds", len(recent), rounds)
	}
	for i := range recent {
		if recent[i] != want[i] {
			t.Fatalf("ring round %d diverged", i)
		}
	}
	if e.Cursor() == 0 || e.Round() != rounds {
		t.Fatalf("cursor %d round %d after %d rounds", e.Cursor(), e.Round(), rounds)
	}
}

// TestEngineWindowClosesByCount checks the request-count trigger: with
// window=4 the fourth admitted request closes the window without a tick.
func TestEngineWindowClosesByCount(t *testing.T) {
	st, err := testFactory(t)()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 4, 8)
	for i := 0; i < 3; i++ {
		if out := e.Apply(Entry{Node: i, Count: 1}); out.Closed() {
			t.Fatalf("window closed after %d of 4 requests", i+1)
		}
	}
	if e.WindowCount() != 3 {
		t.Fatalf("window count %d", e.WindowCount())
	}
	out := e.Apply(Entry{Node: 3, Count: 1})
	if !out.Served {
		t.Fatalf("fourth request did not close the window: %+v", out)
	}
	if e.WindowCount() != 0 {
		t.Fatal("window count not reset after serving")
	}
	// A multi-count arrival can overshoot the window and still closes it.
	if out := e.Apply(Entry{Node: 0, Count: 9}); !out.Served {
		t.Fatal("overshooting arrival did not close the window")
	}
}

// TestEngineRingEvictsOldest fills the ring past capacity and checks only
// the newest keepRounds rounds remain, oldest first.
func TestEngineRingEvictsOldest(t *testing.T) {
	const rounds, keep = 12, 5
	_, seq := testSequence(t, rounds)
	st, err := testFactory(t)()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 1<<30, keep)
	var all []sim.RoundCost
	for i := 0; i < rounds; i++ {
		out := feedRound(t, e, seq.Demand(i))
		if !out.Served {
			t.Fatalf("round %d not served", i)
		}
		all = append(all, out.Cost)
	}
	recent := e.RecentRounds()
	if len(recent) != keep {
		t.Fatalf("ring holds %d, want %d", len(recent), keep)
	}
	for i := range recent {
		if recent[i] != all[rounds-keep+i] {
			t.Fatalf("ring slot %d is not round %d", i, rounds-keep+i)
		}
	}
}

// panicAfter wraps an algorithm and panics in Observe once `healthy`
// rounds have been served — the chaos stub behind the quarantine tests.
type panicAfter struct {
	sim.Algorithm
	healthy int
	seen    int
}

func (p *panicAfter) Observe(t int, d cost.Demand, access cost.AccessCost) core.Delta {
	p.seen++
	if p.seen > p.healthy {
		panic("injected algorithm failure")
	}
	return p.Algorithm.Observe(t, d, access)
}

// SnapshotState implements sim.StateSnapshotter: the wrapped state, then
// the round count as 8 little-endian bytes.
func (p *panicAfter) SnapshotState() ([]byte, error) {
	data, err := p.Algorithm.(sim.StateSnapshotter).SnapshotState()
	return binary.LittleEndian.AppendUint64(data, uint64(p.seen)), err
}

// RestoreState implements sim.StateSnapshotter.
func (p *panicAfter) RestoreState(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("panicAfter: %d-byte snapshot", len(data))
	}
	p.seen = int(binary.LittleEndian.Uint64(data[len(data)-8:]))
	return p.Algorithm.(sim.StateSnapshotter).RestoreState(data[:len(data)-8])
}

// TestEngineQuarantinesPanickingRound checks that an algorithm panic is
// contained: the round is quarantined and counted, the engine keeps
// accepting entries, and the ledger totals stop advancing instead of
// recording a half-played round.
func TestEngineQuarantinesPanickingRound(t *testing.T) {
	const rounds = 6
	env, seq := testSequence(t, rounds)
	st, err := sim.NewStream(env, &panicAfter{Algorithm: online.NewONTH(), healthy: 2}, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 1<<30, rounds)
	served, quarantined := 0, 0
	for i := 0; i < rounds; i++ {
		out := feedRound(t, e, seq.Demand(i))
		switch {
		case out.Served:
			served++
		case out.Quarantined != nil:
			quarantined++
			if out.Quarantined.Cause == "" {
				t.Fatal("quarantine without a cause")
			}
		default:
			t.Fatalf("round %d: tick closed nothing", i)
		}
	}
	if served != 2 || quarantined != rounds-2 {
		t.Fatalf("served %d quarantined %d", served, quarantined)
	}
	if e.Quarantined() != rounds-2 || e.LastQuarantine() == nil {
		t.Fatalf("engine counted %d quarantines", e.Quarantined())
	}
	healthyTotal := e.Totals().Total()
	if healthyTotal <= 0 || math.IsNaN(healthyTotal) {
		t.Fatalf("totals corrupted after quarantine: %v", healthyTotal)
	}
	if len(e.RecentRounds()) != 2 {
		t.Fatalf("ring recorded %d rounds, want the 2 healthy ones", len(e.RecentRounds()))
	}
}

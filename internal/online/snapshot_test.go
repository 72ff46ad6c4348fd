package online

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph/gen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// snapshotEnv builds a deterministic n-node environment with server bound
// k (0 = unbounded) and its workload for the state-snapshot checks.
func snapshotEnv(t testing.TB, n, k, rounds int) (*sim.Env, *workload.Sequence) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g, err := gen.ErdosRenyi(n, 3.6/float64(n), gen.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.Params{Beta: 4, Create: 40, RunActive: 1, RunInactive: 0.2},
		core.Params{QueueCap: 3, Expiry: 20, MaxServers: k})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 12, Lambda: 6}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return env, seq
}

// servable lists every strategy flexserve serves, by its flexserve name,
// as fresh-instance constructors (ONCONF gets a freshly seeded source).
var servable = []struct {
	name string
	mk   func() sim.Algorithm
}{
	{"onth", func() sim.Algorithm { return NewONTH() }},
	{"onbr", func() sim.Algorithm { return NewONBR() }},
	{"onbr-dyn", func() sim.Algorithm { return NewONBRDynamic() }},
	{"onbr-cluster", func() sim.Algorithm { return NewONBRClustered(4) }},
	{"onsamp", func() sim.Algorithm { return NewONSAMP() }},
	{"wfa", func() sim.Algorithm { return NewWFA() }},
	{"onconf", func() sim.Algorithm { return NewONCONF(rand.New(rand.NewSource(3))) }},
}

// TestStateSnapshotRoundTrip pins the sim.StateSnapshotter contract for
// every servable strategy: run to the split, snapshot, restore the
// snapshot into a fresh Reset instance, play the remaining rounds on both
// — every subsequent round cost must be bit-identical, the restored
// instance must snapshot to the same bytes right away, and both must
// snapshot to the same bytes at the end. The environment is cheap enough
// (c = 40, 64 requests a round) that every strategy reconfigures on both
// sides of the split, and the split lands mid-epoch. WFA also runs a
// k = 3 space above parallelGrain and must end with bit-identical work
// functions; ONCONF must make random switches on both sides, and its two
// random sources must end aligned.
func TestStateSnapshotRoundTrip(t *testing.T) {
	const rounds, split = 160, 70
	cases := []struct {
		name string
		n, k int
		mk   func() sim.Algorithm
	}{
		{"ONTH", 30, 0, servable[0].mk},
		{"ONBR", 30, 0, servable[1].mk},
		{"ONBR-dyn", 30, 0, servable[2].mk},
		{"ONBR-cluster", 30, 0, servable[3].mk},
		{"ONSAMP", 30, 0, servable[4].mk},
		{"WFA", 12, 2, servable[5].mk},
		{"WFA-k3", 12, 3, servable[5].mk},
		{"ONCONF", 12, 2, servable[6].mk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, seq := snapshotEnv(t, tc.n, tc.k, rounds)

			orig, err := sim.NewStream(env, tc.mk(), "orig")
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := orig.Algorithm().(*WFA); ok && tc.k == 3 && len(w.configs) < parallelGrain {
				t.Fatalf("%d configurations, want at least parallelGrain = %d", len(w.configs), parallelGrain)
			}
			for i := 0; i < split; i++ {
				if _, err := orig.Serve(seq.Demand(i)); err != nil {
					t.Fatal(err)
				}
			}
			state := snapshotOf(t, orig.Algorithm())

			restored, err := sim.NewStream(env, tc.mk(), "restored")
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Algorithm().(sim.StateSnapshotter).RestoreState(state); err != nil {
				t.Fatal(err)
			}
			restored.RestoreTotals(orig.Round(), orig.Ledger().Totals)
			if !bytes.Equal(snapshotOf(t, restored.Algorithm()), state) {
				t.Fatal("restored instance snapshots to different bytes")
			}

			if !restored.Placement().Equal(orig.Placement()) {
				t.Fatalf("restored placement %v, original %v", restored.Placement(), orig.Placement())
			}
			moves := 0
			for i := split; i < rounds; i++ {
				before := orig.Placement()
				a, err := orig.Serve(seq.Demand(i))
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Serve(seq.Demand(i))
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("round %d diverged after restore:\n  orig     %+v\n  restored %+v", i, a, b)
				}
				if !orig.Placement().Equal(before) {
					moves++
				}
			}
			if moves == 0 {
				t.Fatal("no reconfiguration after the split: the rounds after it test nothing")
			}
			ta, tb := orig.Ledger().Totals, restored.Ledger().Totals
			if math.Float64bits(ta.Total()) != math.Float64bits(tb.Total()) {
				t.Fatalf("totals diverged: %v vs %v", ta, tb)
			}
			if !bytes.Equal(snapshotOf(t, orig.Algorithm()), snapshotOf(t, restored.Algorithm())) {
				t.Fatal("original and restored instances end in different states")
			}
			if a, ok := orig.Algorithm().(*WFA); ok {
				b := restored.Algorithm().(*WFA)
				for i := range a.work {
					if math.Float64bits(a.work[i]) != math.Float64bits(b.work[i]) {
						t.Fatalf("work[%d] = %v after restore, %v without", i, b.work[i], a.work[i])
					}
				}
			}
			if a, ok := orig.Algorithm().(*ONCONF); ok {
				before := drawsIn(t, state)
				if before == 0 || a.draws == before {
					t.Fatalf("draws: %d before the split, %d at the end — want switches on both sides", before, a.draws)
				}
				if a.Rand.Int63() != restored.Algorithm().(*ONCONF).Rand.Int63() {
					t.Fatal("the restored random source is not at the original's position")
				}
			}
		})
	}
}

// snapshotOf snapshots an algorithm, failing the test on error.
func snapshotOf(t *testing.T, alg sim.Algorithm) []byte {
	t.Helper()
	state, err := alg.(sim.StateSnapshotter).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// drawsIn reads the draw count, the last field of an ONCONF snapshot.
func drawsIn(t *testing.T, state []byte) int {
	t.Helper()
	c := &codec{buf: state[len(state)-8:], read: true}
	var draws int
	c.int(&draws, 0, math.MaxInt)
	return draws
}

// TestRestoreRejectsGarbage: a corrupt snapshot is reported, not applied.
func TestRestoreRejectsGarbage(t *testing.T) {
	env, _ := snapshotEnv(t, 30, 0, 1)
	a := NewONTH()
	if err := a.Reset(env); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreState([]byte("not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if err := NewONBR().RestoreState([]byte("{}")); err == nil {
		t.Fatal("restore before Reset accepted")
	}
	if _, err := NewONTH().SnapshotState(); err == nil {
		t.Fatal("snapshot before Reset accepted")
	}
}

// countingSource counts the Int63 calls made on it.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// TestONCONFIntnMatchesRand pins ONCONF's counted intn to rand.Intn: the
// same value from the same source, and the same number of Int63 draws,
// across seeds and for n = 1, powers of two, odd values and 2^31 − 1.
func TestONCONFIntnMatchesRand(t *testing.T) {
	ns := []int{1, 2, 4, 1 << 10, 1 << 30, 3, 7, 1001, 3<<29 + 1, 1<<31 - 1}
	for seed := int64(1); seed <= 5; seed++ {
		a := NewONCONF(rand.New(rand.NewSource(seed)))
		src := &countingSource{Source: rand.NewSource(seed)}
		ref := rand.New(src)
		for i := 0; i < 400; i++ {
			n := ns[i%len(ns)]
			if got, want := a.intn(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d call %d: intn(%d) = %d, rand.Intn = %d", seed, i, n, got, want)
			}
			if a.draws != src.draws {
				t.Fatalf("seed %d call %d (n = %d): %d draws, rand.Intn made %d", seed, i, n, a.draws, src.draws)
			}
		}
	}
}

// FuzzCheckpointState feeds arbitrary bytes as a state snapshot to a
// freshly Reset instance of every servable strategy. RestoreState must
// fail or restore, without panicking or allocating much more than its
// input; a successful restore must snapshot back to the same bytes. The
// seed corpus holds a valid snapshot of each strategy on this 8-node,
// k = 2 environment plus
// truncated, oversize-length, wrong-version and trailing-garbage
// variants.
func FuzzCheckpointState(f *testing.F) {
	env, _ := snapshotEnv(f, 8, 2, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range servable {
			alg := s.mk()
			if err := alg.Reset(env); err != nil {
				t.Fatal(err)
			}
			snap := alg.(sim.StateSnapshotter)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := snap.RestoreState(data)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<16 {
				t.Fatalf("%s: restoring %d bytes allocated %d", s.name, len(data), grew)
			}
			if err != nil {
				continue
			}
			again, err := snap.SnapshotState()
			if err != nil {
				t.Fatalf("%s: snapshot after restore: %v", s.name, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s: restored state snapshots to\n  %x\nnot\n  %x", s.name, again, data)
			}
		}
	})
}

package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/sim"
)

// recoveryConfig is the shared serving configuration of the crash-recovery
// matrix: persistent state in dir, tick-closed rounds only (huge window),
// aggressive checkpointing so the fault window is interesting.
func recoveryConfig(t testing.TB, dir string, fault Fault) Config {
	t.Helper()
	return Config{
		NewStream:       testFactory(t),
		Fingerprint:     "recovery-test",
		Window:          1 << 20, // only ticks close rounds
		QueueCap:        4096,
		CheckpointEvery: 2,
		Dir:             dir,
		Fault:           fault,
		Kill:            func(string) {}, // overridden by the kill case
	}
}

// waitCursor polls until the consumer has applied `target` WAL entries.
func waitCursor(t testing.TB, s *Server, target int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := s.LedgerSnapshot().Cursor; got >= target {
			if got > target {
				t.Fatalf("cursor %d overran the WAL length %d", got, target)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumer stuck at cursor %d, want %d", s.LedgerSnapshot().Cursor, target)
		}
		time.Sleep(time.Millisecond)
	}
}

// feedPhase ingests a deterministic mix: `rounds` groups of five arrivals
// plus a tick, then three trailing arrivals. The trailing arrivals never
// close a round (the window is huge), so once the cursor catches up the
// consumer is provably past its last checkpoint write — abandoning the
// server then cannot race a checkpoint against the restarted one.
func feedPhase(t testing.TB, s *Server, rounds, base int) {
	t.Helper()
	n := s.n()
	classes := Classes()
	for r := 0; r < rounds; r++ {
		for i := 0; i < 5; i++ {
			req := Request{Node: (base + r*5 + i) % n, Count: 1 + i%2, Class: classes[(r+i)%len(classes)]}
			if err := s.Ingest(req); err != nil {
				t.Fatalf("ingest round %d: %v", r, err)
			}
		}
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Ingest(Request{Node: (base + i) % n, Count: 1, Class: Critical}); err != nil {
			t.Fatal(err)
		}
	}
}

// runRecoveryMatrix is the crash-recovery parity check for one fault kind:
// serve under the fault, abandon the process state mid-stream (no drain, no
// final checkpoint — the WAL is ahead of the last checkpoint), restart
// healthy from the same state directory, serve more, drain, and require the
// final ledger to be bit-identical to Replay of the state directory.
func runRecoveryMatrix(t *testing.T, fault Fault) {
	dir := t.TempDir()

	s1, err := New(recoveryConfig(t, dir, fault))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.queue.Close) // release the abandoned consumer goroutine
	killed := make(chan struct{})
	if fault.Kind == FaultKill {
		s1.cfg.Kill = func(string) { close(killed) }
	}
	s1.Start()
	feedPhase(t, s1, 8, 0)
	if fault.Kind == FaultKill {
		select {
		case <-killed:
			// The consumer died mid-stream: admitted WAL entries beyond the
			// kill point were never applied — recovery must replay them.
		case <-time.After(10 * time.Second):
			t.Fatal("kill fault never fired")
		}
	} else {
		waitCursor(t, s1, s1.wal.Count())
	}
	if fault.Kind == FaultCkptFail {
		snap := s1.MetricsSnapshot()
		if snap.CheckpointsFail == 0 {
			t.Fatal("ckptfail fault injected no failures")
		}
		if snap.CheckpointsOK == 0 {
			t.Fatal("want one pre-fault checkpoint for recovery to restore")
		}
	}
	// Crash: abandon s1 — no Drain, no final checkpoint, WAL left open.

	cfg2 := recoveryConfig(t, dir, Fault{}) // the restart is healthy
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got, want := s2.LedgerSnapshot().Cursor, s1.wal.Count(); got != want {
		t.Fatalf("recovered cursor %d, WAL has %d entries", got, want)
	}
	if fault.Kind == FaultKill && s2.MetricsSnapshot().ReplayedRounds == 0 {
		t.Fatal("kill recovery replayed no rounds")
	}
	s2.Start()
	feedPhase(t, s2, 4, 100)
	waitCursor(t, s2, s2.wal.Count())
	s2.Drain()

	recovered := s2.LedgerSnapshot()
	engine, err := Replay(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	baseline := DumpLedger(engine)
	if !reflect.DeepEqual(recovered, baseline) {
		t.Fatalf("recovered ledger diverges from the uninterrupted baseline:\n  recovered %+v\n  baseline  %+v", recovered, baseline)
	}
	got, err := json.Marshal(recovered)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("ledger JSON not byte-identical:\n  %s\n  %s", got, want)
	}
	if recovered.Rounds == 0 || recovered.Total <= 0 {
		t.Fatalf("degenerate ledger: %+v", recovered)
	}
}

func TestRecoveryParity(t *testing.T) {
	cases := []Fault{
		{Kind: FaultKill, After: 5},
		{Kind: FaultSlow, After: 2, Delay: time.Millisecond},
		{Kind: FaultFlood, After: 10, Factor: 4},
		{Kind: FaultCkptFail, After: 1},
	}
	for _, f := range cases {
		f := f
		t.Run(f.Kind.String(), func(t *testing.T) { runRecoveryMatrix(t, f) })
	}
}

// TestRecoveryRejectsForeignState pins the fingerprint guard end to end: a
// server must refuse a state directory written under another configuration.
func TestRecoveryRejectsForeignState(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(recoveryConfig(t, dir, Fault{}))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	feedPhase(t, s1, 2, 0)
	waitCursor(t, s1, s1.wal.Count())
	s1.Drain()

	cfg := recoveryConfig(t, dir, Fault{})
	cfg.Fingerprint = "some-other-config"
	if _, err := New(cfg); err == nil {
		t.Fatal("foreign state directory accepted")
	}
}

// TestDrainThenRestartIsCleanContinuation: a graceful drain writes a final
// checkpoint at the WAL head; the restart restores it, has no entry left
// to replay, and continues without re-serving anything.
func TestDrainThenRestartIsCleanContinuation(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir, Fault{})
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	feedPhase(t, s1, 6, 0)
	waitCursor(t, s1, s1.wal.Count())
	s1.Drain()
	before := s1.LedgerSnapshot()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after clean drain: %v", err)
	}
	after := s2.LedgerSnapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("clean restart changed the ledger:\n  before %+v\n  after  %+v", before, after)
	}
	s2.queue.Close()
}

// TestQuarantineSurvivesRecovery: a round quarantined live stays
// quarantined on replay — the ledger (which skips the poisoned round) is
// reproduced bit-identically, not "repaired". The factory's algorithm
// panics deterministically after four healthy rounds, so live serving and
// WAL replay agree on which rounds are poisoned.
func TestQuarantineSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir, Fault{})
	cfg.NewStream = testFactoryAlg(t, func() sim.Algorithm {
		return &panicAfter{Algorithm: online.NewONTH(), healthy: 4}
	})
	cfg.Fingerprint = "quarantine-test"

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	feedPhase(t, s1, 7, 0)
	waitCursor(t, s1, s1.wal.Count())
	live := s1.LedgerSnapshot()
	if live.Quarantined == 0 {
		t.Fatal("poisoned algorithm quarantined nothing")
	}
	// Crash without draining, restart, and compare against the replay.
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery across quarantined rounds: %v", err)
	}
	t.Cleanup(s1.queue.Close)
	recovered := s2.LedgerSnapshot()
	if !reflect.DeepEqual(live, recovered) {
		t.Fatalf("quarantine not reproduced on recovery:\n  live      %+v\n  recovered %+v", live, recovered)
	}
	if recovered.Quarantined != live.Quarantined {
		t.Fatalf("quarantine count changed: %d -> %d", live.Quarantined, recovered.Quarantined)
	}
	s2.queue.Close()
}

// servableAlgorithms mirrors flexserve's online -alg names, each with the
// server bound its configuration space needs here.
var servableAlgorithms = []struct {
	name string
	k    int
	mk   func() sim.Algorithm
}{
	{"onth", 0, func() sim.Algorithm { return online.NewONTH() }},
	{"onbr", 0, func() sim.Algorithm { return online.NewONBR() }},
	{"onbr-dyn", 0, func() sim.Algorithm { return online.NewONBRDynamic() }},
	{"onbr-cluster", 0, func() sim.Algorithm { return online.NewONBRClustered(8) }},
	{"onsamp", 0, func() sim.Algorithm { return online.NewONSAMP() }},
	{"wfa", 2, func() sim.Algorithm { return online.NewWFA() }},
	{"onconf", 2, func() sim.Algorithm { return online.NewONCONF(rand.New(rand.NewSource(7))) }},
}

// TestEveryServableAlgorithmRecovers is the uninterrupted-ledger check
// for every servable strategy. A server killed after 13 rounds, with its
// WAL rotated and truncated behind its checkpoints, recovers and keeps
// serving; its final ledger must be byte-identical to one uninterrupted
// server's over the same admitted stream. The uninterrupted server's
// whole WAL, replayed from entry zero, must then reproduce its mid-run
// and final checkpoints bit for bit at their cursors. ONCONF makes random
// switches in rounds 11 and 24 here, so the checkpoint the killed server
// restores (round 12) carries a draw and the run after it draws again.
func TestEveryServableAlgorithmRecovers(t *testing.T) {
	for _, alg := range servableAlgorithms {
		t.Run(alg.name, func(t *testing.T) {
			config := func(dir string, fault Fault, segEntries int) Config {
				cfg := recoveryConfig(t, dir, fault)
				cfg.NewStream = testFactoryK(t, alg.k, alg.mk)
				cfg.Fingerprint = "servable-" + alg.name
				cfg.SegmentEntries = segEntries
				return cfg
			}

			whole := t.TempDir()
			u, err := New(config(whole, Fault{}, 0))
			if err != nil {
				t.Fatal(err)
			}
			u.Start()
			feedPhase(t, u, 16, 0)
			waitCursor(t, u, u.wal.Count())
			mid := readTestCheckpoint(t, whole, "servable-"+alg.name)
			feedPhase(t, u, 12, 100)
			waitCursor(t, u, u.wal.Count())
			u.Drain()
			end := readTestCheckpoint(t, whole, "servable-"+alg.name)

			dir := t.TempDir()
			s1, err := New(config(dir, Fault{Kind: FaultKill, After: 13}, 8))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s1.queue.Close)
			killed := make(chan struct{})
			s1.cfg.Kill = func(string) { close(killed) }
			s1.Start()
			feedPhase(t, s1, 16, 0)
			select {
			case <-killed:
			case <-time.After(10 * time.Second):
				t.Fatal("kill fault never fired")
			}
			if s1.MetricsSnapshot().CheckpointsOK == 0 || s1.wal.Base() == 0 {
				t.Fatal("killed before a checkpoint truncated the WAL")
			}
			s2, err := New(config(dir, Fault{}, 8))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			s2.Start()
			feedPhase(t, s2, 12, 100)
			waitCursor(t, s2, s2.wal.Count())
			s2.Drain()

			got, err := json.Marshal(s2.LedgerSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(u.LedgerSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("recovered ledger diverges from the uninterrupted run:\n  recovered     %s\n  uninterrupted %s", got, want)
			}
			replayMatches(t, config(whole, Fault{}, 0), mid, end)
		})
	}
}

// readTestCheckpoint reads the state directory's checkpoint.
func readTestCheckpoint(t *testing.T, dir, fingerprint string) *Checkpoint {
	t.Helper()
	c, err := ReadCheckpoint(filepath.Join(dir, CheckpointName), fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayMatches replays the state directory's whole WAL from entry zero
// through a fresh engine and requires each checkpoint to equal, byte for
// byte, the checkpoint of the replayed engine at its cursor.
func replayMatches(t *testing.T, cfg Config, ckpts ...*Checkpoint) {
	t.Helper()
	engine, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal, base, entries, err := OpenLog(cfg.Dir, cfg.Fingerprint, cfg.SegmentEntries)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if base != 0 {
		t.Fatalf("WAL starts at entry %d, want the whole log", base)
	}
	for i := 0; i <= len(entries); i++ {
		for _, c := range ckpts {
			if c.Cursor != i {
				continue
			}
			want, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(mustCheckpoint(t, engine, cfg.Fingerprint))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("replay from entry zero diverges from the checkpoint at cursor %d:\n  replayed   %s\n  checkpoint %s", i, got, want)
			}
		}
		if i < len(entries) {
			engine.Apply(entries[i])
		}
	}
}

// drainedStateDir serves four rounds into a fresh state directory and
// drains, leaving a WAL and a checkpoint; it returns the configuration and
// the checkpoint decoded as a generic JSON object, for tests to edit.
func drainedStateDir(t testing.TB) (Config, map[string]any) {
	t.Helper()
	cfg := recoveryConfig(t, t.TempDir(), Fault{})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	feedPhase(t, s, 4, 0)
	waitCursor(t, s, s.wal.Count())
	s.Drain()
	data, err := os.ReadFile(filepath.Join(cfg.Dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return cfg, m
}

// refusedNaming writes the edited checkpoint back and requires New and
// Replay to fail with an error naming the file and containing want.
func refusedNaming(t *testing.T, cfg Config, m map[string]any, want string) {
	t.Helper()
	path := filepath.Join(cfg.Dir, CheckpointName)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
		t.Fatalf("New returned %v, want an error naming %s and %q", err, path, want)
	}
	if _, err := Replay(cfg); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Replay returned %v, want an error naming %s and %q", err, path, want)
	}
}

// TestParentCheckpointRefused: a checkpoint.json from before the state
// codec — its alg_state a JSON object, or absent — fails recovery and
// replay loudly, naming the file, instead of panicking or starting over.
func TestParentCheckpointRefused(t *testing.T) {
	edits := []struct {
		name string
		edit func(map[string]any)
	}{
		{"object", func(m map[string]any) { m["alg_state"] = map[string]any{"pool": map[string]any{"active": []int{1}}} }},
		{"absent", func(m map[string]any) { delete(m, "alg_state") }},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			cfg, m := drainedStateDir(t)
			tc.edit(m)
			refusedNaming(t, cfg, m, "")
		})
	}
}

// TestCheckpointEnvelopeRefused: a checkpoint whose window or counters
// cannot describe this engine fails recovery naming the file and the
// field. A window node outside the network used to panic recovery (index
// out of range in cost.Accumulator.Add).
func TestCheckpointEnvelopeRefused(t *testing.T) {
	pair := func(node, count int) map[string]any { return map[string]any{"Node": node, "Count": count} }
	edits := []struct {
		name, field string
		edit        func(map[string]any)
	}{
		{"node beyond the network", "window", func(m map[string]any) { m["window"] = []any{pair(1000000, 1)} }},
		{"negative node", "window", func(m map[string]any) { m["window"] = []any{pair(-1, 1)} }},
		{"zero count", "window", func(m map[string]any) { m["window"] = []any{pair(3, 0)} }},
		{"unsorted nodes", "window", func(m map[string]any) { m["window"] = []any{pair(5, 1), pair(2, 1)} }},
		{"repeated node", "window", func(m map[string]any) { m["window"] = []any{pair(2, 1), pair(2, 1)} }},
		{"full window", "window", func(m map[string]any) { m["window"] = []any{pair(1, 1), pair(2, 1<<20-1)} }},
		{"negative round", "round", func(m map[string]any) { m["round"] = -1 }},
		{"negative quarantined", "quarantined", func(m map[string]any) { m["quarantined"] = -2 }},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			cfg, m := drainedStateDir(t)
			tc.edit(m)
			refusedNaming(t, cfg, m, "checkpoint field "+tc.field)
		})
	}
}

// FuzzCheckpointFile puts arbitrary bytes in a drained state directory's
// checkpoint.json and recovers through New: it must fail or recover, never
// panic.
func FuzzCheckpointFile(f *testing.F) {
	cfg, m := drainedStateDir(f)
	valid, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, window := range []string{`[{"Node":1000000,"Count":1}]`, `[{"Node":3,"Count":-4}]`, `[{"Node":5,"Count":1},{"Node":2,"Count":1}]`} {
		m["window"] = json.RawMessage(window)
		edited, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(edited)
	}
	f.Add([]byte(`{"fingerprint":"recovery-test","cursor":-1}`))
	f.Add([]byte("{truncated"))
	wal, err := filepath.Glob(filepath.Join(cfg.Dir, "wal-*"))
	if err != nil || len(wal) == 0 {
		f.Fatalf("no WAL segments in %s (%v)", cfg.Dir, err)
	}
	f.Fuzz(func(t *testing.T, checkpoint []byte) {
		c := cfg
		c.Dir = t.TempDir()
		for _, seg := range wal {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(c.Dir, filepath.Base(seg)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(c.Dir, CheckpointName), checkpoint, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := New(c); err == nil {
			s.wal.Close()
		}
	})
}

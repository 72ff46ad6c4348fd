package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/sim"
)

// rotationConfig is recoveryConfig with aggressive segment rotation, so a
// short feed crosses many rotation boundaries and truncation has sealed
// segments to delete.
func rotationConfig(t *testing.T, dir string, fault Fault) Config {
	t.Helper()
	cfg := recoveryConfig(t, dir, fault)
	cfg.SegmentEntries = 8
	return cfg
}

// countSegments lists the WAL segment files on disk.
func countSegments(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestRotationTruncationRecoveryParity is the satellite's pinned guarantee:
// a server whose WAL rotated and was truncated behind durable
// checkpoints crashes, restarts from a log whose prefix is gone (recovery
// must restore the checkpoint and replay only the retained tail — a tail
// that starts mid-segment-chain, across a rotation boundary), keeps
// serving, and its final ledger is byte-identical to Replay over the same
// truncated state directory.
func TestRotationTruncationRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(rotationConfig(t, dir, Fault{Kind: FaultKill, After: 5}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.queue.Close)
	killed := make(chan struct{})
	s1.cfg.Kill = func(string) { close(killed) }
	s1.Start()
	feedPhase(t, s1, 8, 0)
	<-killed

	// The feed wrote 8×6+3 = 51 entries across ceil(51/8) segments; the
	// checkpoints (every 2 rounds) must have anchored real deletions.
	if base := s1.wal.Base(); base == 0 {
		t.Fatal("no sealed segment was truncated — test never crossed a truncation boundary")
	}
	written := s1.wal.Count()
	if on := countSegments(t, dir); on >= (written+7)/8 {
		t.Fatalf("%d segments on disk for %d entries — truncation deleted nothing", on, written)
	}

	cfg2 := rotationConfig(t, dir, Fault{})
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("recovery from truncated WAL failed: %v", err)
	}
	if got := s2.LedgerSnapshot().Cursor; got != written {
		t.Fatalf("recovered cursor %d, WAL has %d entries", got, written)
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
		t.Fatalf("recovered ledger diverges from the truncated-WAL baseline:\n  recovered %+v\n  baseline  %+v", recovered, baseline)
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

// TestRotationParityAgainstSingleFile: the same admitted stream produces a
// bit-identical ledger whether the WAL rotated (and truncated) every 8
// entries or stayed within one segment of the default size —
// segmentation is a storage concern, invisible to the game. A segment
// size of 0 selects DefaultSegmentEntries: the log rotates at its
// (DefaultSegmentEntries+1)-th append.
func TestRotationParityAgainstSingleFile(t *testing.T) {
	ledgers := make([]LedgerDump, 2)
	for i, segEntries := range []int{0, 8} {
		dir := t.TempDir()
		cfg := recoveryConfig(t, dir, Fault{})
		cfg.SegmentEntries = segEntries
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		feedPhase(t, s, 8, 0)
		waitCursor(t, s, s.wal.Count())
		s.Drain()
		ledgers[i] = s.LedgerSnapshot()
		if segEntries == 0 && countSegments(t, dir) != 1 {
			t.Fatalf("%d segments for %d entries at the default size", countSegments(t, dir), ledgers[i].Cursor)
		}
	}
	if !reflect.DeepEqual(ledgers[0], ledgers[1]) {
		t.Fatalf("segmented ledger diverges from single-file ledger:\n  single   %+v\n  rotated  %+v", ledgers[0], ledgers[1])
	}

	dir := t.TempDir()
	log, err := CreateLog(dir, "default-rotation", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= DefaultSegmentEntries; i++ {
		if i == DefaultSegmentEntries && countSegments(t, dir) != 1 {
			t.Fatalf("%d segments after %d appends, want 1", countSegments(t, dir), i)
		}
		if err := log.Append(TickEntry()); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countSegments(t, dir); got != 2 {
		t.Fatalf("%d segments after %d appends, want 2", got, DefaultSegmentEntries+1)
	}
}

// TestLegacyWALRefused: a state directory laid out by the
// pre-segmentation code (a single wal.log) is not adopted: New fails
// loudly, naming the file, instead of starting fresh beside it.
func TestLegacyWALRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir, Fault{})
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	feedPhase(t, s1, 4, 0)
	waitCursor(t, s1, s1.wal.Count())
	s1.Drain()

	// Re-create the legacy layout: the whole log as wal.log.
	legacy := filepath.Join(dir, "wal.log")
	if err := os.Rename(filepath.Join(dir, "wal-000001.log"), legacy); err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "not a WAL segment name") {
		t.Fatalf("legacy wal.log: New returned %v, want a refusal naming %s", err, legacy)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("refused wal.log was touched: %v", err)
	}
}

// nonSnapshotAlg hides ONTH's StateSnapshotter implementation, standing in
// for a strategy that cannot be checkpointed.
type nonSnapshotAlg struct{ sim.Algorithm }

func (nonSnapshotAlg) Name() string { return "no-snapshot-alg" }

// TestNonSnapshotAlgorithmRefused: serving requires sim.StateSnapshotter,
// since every checkpoint restores; New and Replay refuse any other
// algorithm, naming it, before touching the state directory.
func TestNonSnapshotAlgorithmRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := rotationConfig(t, dir, Fault{})
	cfg.NewStream = testFactoryAlg(t, func() sim.Algorithm {
		return &nonSnapshotAlg{Algorithm: online.NewONTH()}
	})
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "no-snapshot-alg") {
		t.Fatalf("New returned %v, want a refusal naming no-snapshot-alg", err)
	}
	if _, err := Replay(cfg); err == nil || !strings.Contains(err.Error(), "no-snapshot-alg") {
		t.Fatalf("Replay returned %v, want a refusal naming no-snapshot-alg", err)
	}
	if n := countSegments(t, dir); n != 0 {
		t.Fatalf("refused server left %d WAL segments", n)
	}
}

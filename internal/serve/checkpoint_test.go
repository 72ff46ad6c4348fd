package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildEngine serves `rounds` sequence rounds through a fresh engine.
func buildEngine(t *testing.T, rounds int) *Engine {
	t.Helper()
	_, seq := testSequence(t, rounds)
	st, err := testFactory(t)()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 1<<30, DefaultKeepRounds)
	for i := 0; i < rounds; i++ {
		if out := feedRound(t, e, seq.Demand(i)); !out.Served {
			t.Fatalf("round %d not served", i)
		}
	}
	return e
}

// mustCheckpoint snapshots an engine, failing the test on error.
func mustCheckpoint(t *testing.T, e *Engine, fingerprint string) *Checkpoint {
	t.Helper()
	c, err := checkpointOf(e, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckpointRoundTripAndMatch(t *testing.T) {
	e := buildEngine(t, 10)
	c := mustCheckpoint(t, e, "fp")
	path := filepath.Join(t.TempDir(), CheckpointName)
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := back.matches(e); err != nil {
		t.Fatalf("round-tripped checkpoint does not validate its own engine: %v", err)
	}
	// A deterministic twin of the engine matches too.
	twin := buildEngine(t, 10)
	if err := back.matches(twin); err != nil {
		t.Fatalf("deterministic twin rejected: %v", err)
	}
	// An engine in a different state is rejected.
	ahead := buildEngine(t, 11)
	if err := back.matches(ahead); err == nil {
		t.Fatal("checkpoint matched an engine one round ahead")
	}
}

func TestCheckpointRefusesForeignFingerprint(t *testing.T) {
	e := buildEngine(t, 3)
	path := filepath.Join(t.TempDir(), CheckpointName)
	if err := WriteCheckpoint(path, mustCheckpoint(t, e, "config-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path, "config-b"); err == nil ||
		!strings.Contains(err.Error(), "refusing to restore") {
		t.Fatalf("foreign fingerprint accepted: %v", err)
	}
}

func TestCheckpointWriteIsAtomic(t *testing.T) {
	e := buildEngine(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, CheckpointName)
	for i := 0; i < 3; i++ {
		if err := WriteCheckpoint(path, mustCheckpoint(t, e, "fp")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != CheckpointName {
		var got []string
		for _, n := range names {
			got = append(got, n.Name())
		}
		t.Fatalf("state dir after rewrites: %v (temp files leaked?)", got)
	}
	if _, err := ReadCheckpoint(path, "fp"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), CheckpointName)
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path, "fp"); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testSegment creates a first-segment WAL at path under fingerprint fp.
func testSegment(t *testing.T, path, fp string) *WAL {
	t.Helper()
	w, err := createSegment(path, walHeader{WAL: walVersion, Fingerprint: fp, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// openEntries reopens a segment, dropping the header.
func openEntries(path, fp string) (*WAL, []Entry, error) {
	w, _, entries, err := openSegment(path, fp)
	return w, entries, err
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w := testSegment(t, path, "fp-1")
	wrote := []Entry{
		ArrivalEntry(Request{Node: 3, Count: 2, Class: Critical}),
		TickEntry(),
		ArrivalEntry(Request{Node: 0, Count: 1, Class: Batch}),
	}
	for _, e := range wrote {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(wrote) {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, entries, err := openEntries(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, wrote) {
		t.Fatalf("replayed %+v, wrote %+v", entries, wrote)
	}
	// Appends after recovery land behind the replayed entries.
	extra := ArrivalEntry(Request{Node: 7, Count: 4, Class: Standard})
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = openEntries(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || !reflect.DeepEqual(entries[3], extra) {
		t.Fatalf("after reopen: %+v", entries)
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w := testSegment(t, path, "fp")
	if err := w.Append(TickEntry()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, newline-less final record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":5,"c"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, entries, err := openEntries(path, "fp")
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(entries) != 1 || !entries[0].Tick {
		t.Fatalf("replayed %+v", entries)
	}
	// The torn bytes are gone: the next append produces a clean log.
	if err := w2.Append(ArrivalEntry(Request{Node: 5, Count: 1})); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = openEntries(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Node != 5 {
		t.Fatalf("after torn-tail recovery: %+v", entries)
	}
}

func TestWALRefusesForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	w := testSegment(t, path, "config-a")
	w.Close()
	if _, _, err := openEntries(path, "config-b"); err == nil ||
		!strings.Contains(err.Error(), "refusing to replay") {
		t.Fatalf("foreign fingerprint accepted: %v", err)
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openEntries(empty, "fp"); err == nil {
		t.Fatal("empty file accepted as a WAL")
	}
	junk := filepath.Join(dir, "junk.log")
	if err := os.WriteFile(junk, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openEntries(junk, "fp"); err == nil {
		t.Fatal("junk header accepted as a WAL")
	}
}

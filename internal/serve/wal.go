package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Entry is one write-ahead-log record: an admitted arrival (Count requests
// at Node under Class) or a round tick (the timer or an explicit /tick
// closing the current demand window). Entries are appended in admission
// order — the single order the engine applies them in, live and on replay,
// which is what makes recovery bit-identical.
type Entry struct {
	Node  int   `json:"n"`
	Count int   `json:"c,omitempty"`
	Class Class `json:"k,omitempty"`
	Tick  bool  `json:"t,omitempty"`
}

// TickEntry is the record of one round boundary.
func TickEntry() Entry { return Entry{Node: -1, Tick: true} }

// ArrivalEntry is the record of one admitted request batch.
func ArrivalEntry(r Request) Entry {
	return Entry{Node: r.Node, Count: r.Count, Class: r.Class}
}

// Request converts an arrival entry back.
func (e Entry) Request() Request { return Request{Node: e.Node, Count: e.Count, Class: e.Class} }

// walHeader is the first line of every WAL file: a format version plus the
// serving configuration's fingerprint, so a restart with a different
// topology, algorithm, or window size refuses to replay a stale log
// instead of silently producing a divergent ledger. Seq is the segment's
// position in the chain and Base the global index of its first entry.
type walHeader struct {
	WAL         int    `json:"wal"`
	Fingerprint string `json:"fingerprint"`
	Seq         int    `json:"seq,omitempty"`
	Base        int    `json:"base,omitempty"`
}

const walVersion = 1

// WAL is one append-only arrival log file: one segment of a Log. Writes
// are buffered and flushed per append; a crash can lose at most the torn
// final line, which openSegment discards (and truncates) — every complete
// line is replayable.
type WAL struct {
	f     *os.File
	w     *bufio.Writer
	count int
}

// createSegment starts a fresh log file at path (truncating any previous
// one) with the given header. The header and the file's directory entry
// are synced before it returns, so after a power cut the segment is either
// absent or readable — never an empty file that would fail recovery.
func createSegment(path string, h walHeader) (w *WAL, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	w = &WAL{f: f, w: bufio.NewWriter(f)}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	if _, err := w.w.Write(append(hdr, '\n')); err != nil {
		return nil, err
	}
	if err := w.w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return w, nil
}

// syncDir fsyncs a directory, making the creations, renames and removals
// in it durable. Without it a power cut may keep a later operation (a
// segment deletion) while losing an earlier one it depended on (the
// checkpoint rename that made the deletion safe).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment reads an existing log file back for recovery: it validates
// the header fingerprint, returns the header and every complete entry in
// append order, truncates a torn final line (the one write a crash may
// have interrupted), and leaves the file positioned for further appends.
func openSegment(path, fingerprint string) (w *WAL, hdr walHeader, entries []Entry, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, hdr, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, hdr, nil, err
	}
	// Only complete (newline-terminated) lines are replayable; whatever
	// follows the last newline is a torn append.
	good := bytes.LastIndexByte(data, '\n') + 1
	lines := bytes.Split(data[:good], []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, hdr, nil, fmt.Errorf("serve: %s: empty WAL (missing header)", path)
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.WAL != walVersion {
		return nil, hdr, nil, fmt.Errorf("serve: %s: not a v%d WAL", path, walVersion)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, hdr, nil, fmt.Errorf("serve: %s was written under config %q, this server is %q — refusing to replay",
			path, hdr.Fingerprint, fingerprint)
	}
	entries = make([]Entry, 0, len(lines)-1)
	for i, line := range lines[1:] {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, hdr, nil, fmt.Errorf("serve: %s: bad WAL entry %d: %w", path, i, err)
		}
		entries = append(entries, e)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			return nil, hdr, nil, err
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return nil, hdr, nil, err
	}
	return &WAL{f: f, w: bufio.NewWriter(f), count: len(entries)}, hdr, entries, nil
}

// Append logs one entry and flushes it to the OS.
func (w *WAL) Append(e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of entries appended or read back.
func (w *WAL) Count() int { return w.count }

// Sync forces the log to stable storage.
func (w *WAL) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

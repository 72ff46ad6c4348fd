package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Checkpoint is the periodic snapshot of the serving state: the stream
// cursor (how many WAL entries were applied), the round counter, the
// current placement, and the ledger totals as exact float bits.
//
// When the algorithm implements sim.StateSnapshotter, the checkpoint
// additionally carries full restore state — the open demand window and
// the algorithm's serialised run state — and recovery can resume from it
// directly instead of replaying the WAL from entry zero. That is what
// anchors WAL truncation: sealed segments entirely below a restorable
// checkpoint's cursor can be deleted. For other algorithms the restore
// fields stay empty and the checkpoint's role on restart is validation
// only: the replayed state at Cursor must match the snapshot bit for bit,
// or the state directory is corrupt.
type Checkpoint struct {
	Fingerprint string    `json:"fingerprint"`
	Cursor      int       `json:"cursor"`
	Round       int       `json:"round"`
	Quarantined int       `json:"quarantined"`
	Placement   []int     `json:"placement"`
	Inactive    int       `json:"inactive"`
	TotalBits   [5]uint64 `json:"total_bits"` // latency, load, run, migration, creation
	Total       float64   `json:"total"`      // human-readable; TotalBits is authoritative

	// Restore state (present only for snapshot-capable algorithms).
	Window   []cost.NodeCount `json:"window,omitempty"`    // open demand window, sorted by node
	AlgState json.RawMessage  `json:"alg_state,omitempty"` // sim.StateSnapshotter payload
}

// Restorable reports whether the checkpoint carries full restore state,
// i.e. recovery can resume from it without the WAL prefix before Cursor.
func (c *Checkpoint) Restorable() bool { return len(c.AlgState) > 0 }

// totalsToBits packs a breakdown into exact float bits.
func totalsToBits(b sim.Breakdown) [5]uint64 {
	return [5]uint64{
		math.Float64bits(b.Latency),
		math.Float64bits(b.Load),
		math.Float64bits(b.Run),
		math.Float64bits(b.Migration),
		math.Float64bits(b.Creation),
	}
}

// bitsToTotals is the inverse of totalsToBits.
func bitsToTotals(bits [5]uint64) sim.Breakdown {
	return sim.Breakdown{
		Latency:   math.Float64frombits(bits[0]),
		Load:      math.Float64frombits(bits[1]),
		Run:       math.Float64frombits(bits[2]),
		Migration: math.Float64frombits(bits[3]),
		Creation:  math.Float64frombits(bits[4]),
	}
}

// checkpointOf snapshots an engine. For snapshot-capable algorithms the
// checkpoint carries full restore state; a failing snapshot degrades to a
// validation-only checkpoint (full replay still recovers) rather than
// failing the checkpoint.
func checkpointOf(e *Engine, fingerprint string) *Checkpoint {
	totals := e.Totals()
	c := &Checkpoint{
		Fingerprint: fingerprint,
		Cursor:      e.Cursor(),
		Round:       e.Round(),
		Quarantined: e.Quarantined(),
		Placement:   e.Placement(),
		Inactive:    e.stream.Algorithm().Inactive(),
		TotalBits:   totalsToBits(totals),
		Total:       totals.Total(),
	}
	if snap, ok := e.stream.Algorithm().(sim.StateSnapshotter); ok {
		if data, err := snap.SnapshotState(); err == nil {
			c.Window = e.WindowDemand().Pairs()
			c.AlgState = data
		}
	}
	return c
}

// restore reinstalls the checkpoint into a freshly built engine: the
// algorithm's run state, the stream position and totals, the open demand
// window, and the engine counters. It then validates the result against
// the checkpoint's own fields, so an inconsistent snapshot is rejected
// instead of silently diverging. Only restorable checkpoints qualify.
func (c *Checkpoint) restore(e *Engine) error {
	if !c.Restorable() {
		return fmt.Errorf("serve: checkpoint at cursor %d carries no restore state", c.Cursor)
	}
	snap, ok := e.stream.Algorithm().(sim.StateSnapshotter)
	if !ok {
		return fmt.Errorf("serve: checkpoint at cursor %d carries %s state, but the configured algorithm cannot restore it",
			c.Cursor, e.stream.Algorithm().Name())
	}
	if err := snap.RestoreState([]byte(c.AlgState)); err != nil {
		return err
	}
	e.stream.RestoreTotals(c.Round, bitsToTotals(c.TotalBits))
	e.window.Reset()
	d := cost.DemandFromPairs(c.Window...)
	e.window.Add(d)
	e.windowCount = d.Total()
	e.cursor = c.Cursor
	e.quarantined = c.Quarantined
	e.lastQuar = nil
	if err := c.matches(e); err != nil {
		return fmt.Errorf("serve: restored state diverges from its own checkpoint: %w", err)
	}
	return nil
}

// WriteCheckpoint persists the snapshot atomically: a temp file in the
// destination directory is written, synced, and renamed into place, so a
// crash mid-write (or an injected checkpoint-write failure) always leaves
// the previous complete checkpoint behind, never a truncated one. The
// directory is synced after the rename, so the new checkpoint is durable
// before the caller truncates WAL segments behind it.
func WriteCheckpoint(path string, c *Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadCheckpoint loads a snapshot and validates its fingerprint.
func ReadCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("serve: %s: bad checkpoint: %w", path, err)
	}
	if c.Fingerprint != fingerprint {
		return nil, fmt.Errorf("serve: %s was written under config %q, this server is %q — refusing to restore",
			path, c.Fingerprint, fingerprint)
	}
	return &c, nil
}

// matches reports whether the engine's state equals the checkpoint, bit
// for bit — the recovery validation run against the replayed WAL.
func (c *Checkpoint) matches(e *Engine) error {
	if e.Cursor() != c.Cursor {
		return fmt.Errorf("cursor %d, checkpoint has %d", e.Cursor(), c.Cursor)
	}
	if e.Round() != c.Round {
		return fmt.Errorf("round %d, checkpoint has %d", e.Round(), c.Round)
	}
	if e.Quarantined() != c.Quarantined {
		return fmt.Errorf("quarantined %d, checkpoint has %d", e.Quarantined(), c.Quarantined)
	}
	p := e.Placement()
	if len(p) != len(c.Placement) {
		return fmt.Errorf("placement %v, checkpoint has %v", p, c.Placement)
	}
	for i := range p {
		if p[i] != c.Placement[i] {
			return fmt.Errorf("placement %v, checkpoint has %v", p, c.Placement)
		}
	}
	if got := totalsToBits(e.Totals()); got != c.TotalBits {
		return fmt.Errorf("ledger totals %v, checkpoint has %v", got, c.TotalBits)
	}
	return nil
}

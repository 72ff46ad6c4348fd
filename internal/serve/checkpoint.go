package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Checkpoint is the periodic snapshot of the serving state: the stream
// cursor (how many WAL entries were applied), the round counter, the
// placement, the ledger totals as exact float bits, the open demand window
// and the algorithm's run state (sim.StateSnapshotter). Recovery restores
// it and replays only the WAL entries past Cursor.
type Checkpoint struct {
	Fingerprint string           `json:"fingerprint"`
	Cursor      int              `json:"cursor"`
	Round       int              `json:"round"`
	Quarantined int              `json:"quarantined"`
	Placement   []int            `json:"placement"`
	Inactive    int              `json:"inactive"`
	TotalBits   [5]uint64        `json:"total_bits"`       // latency, load, run, migration, creation
	Total       float64          `json:"total"`            // human-readable; TotalBits is authoritative
	Window      []cost.NodeCount `json:"window,omitempty"` // open demand window, sorted by node
	AlgState    []byte           `json:"alg_state"`        // sim.StateSnapshotter payload
}

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

// checkpointOf snapshots an engine; it fails when the algorithm's state
// snapshot does.
func checkpointOf(e *Engine, fingerprint string) (*Checkpoint, error) {
	snap, err := snapshotter(e.stream.Algorithm())
	if err != nil {
		return nil, err
	}
	data, err := snap.SnapshotState()
	if err != nil {
		return nil, err
	}
	totals := e.Totals()
	return &Checkpoint{
		Fingerprint: fingerprint,
		Cursor:      e.Cursor(),
		Round:       e.Round(),
		Quarantined: e.Quarantined(),
		Placement:   e.Placement(),
		Inactive:    e.stream.Algorithm().Inactive(),
		TotalBits:   totalsToBits(totals),
		Total:       totals.Total(),
		Window:      e.WindowDemand().Pairs(),
		AlgState:    data,
	}, nil
}

// snapshotter returns the algorithm's state snapshots; serving refuses an
// algorithm without them, naming it.
func snapshotter(alg sim.Algorithm) (sim.StateSnapshotter, error) {
	snap, ok := alg.(sim.StateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("serve: %s has no state snapshot (sim.StateSnapshotter), so it cannot be checkpointed or served", alg.Name())
	}
	return snap, nil
}

// restore reinstalls the checkpoint into a freshly built engine, then
// validates the result against the checkpoint's own fields, so an
// inconsistent snapshot is rejected instead of silently diverging. The
// envelope is checked first (checkEnvelope), so a corrupt file fails
// naming the field instead of panicking recovery.
func (c *Checkpoint) restore(e *Engine) error {
	if err := c.checkEnvelope(e); err != nil {
		return err
	}
	snap, err := snapshotter(e.stream.Algorithm())
	if err != nil {
		return err
	}
	if err := snap.RestoreState(c.AlgState); err != nil {
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

// checkEnvelope checks the fields restore installs directly: the counters
// are non-negative, and the open window holds nodes of the engine's network
// in strictly increasing order, each with at least one request, fewer in
// total than the window size (a full window would have closed). Writing a
// checkpoint never runs it; only recovery reads untrusted bytes.
func (c *Checkpoint) checkEnvelope(e *Engine) error {
	for _, f := range []struct {
		name  string
		value int
	}{{"cursor", c.Cursor}, {"round", c.Round}, {"quarantined", c.Quarantined}} {
		if f.value < 0 {
			return fmt.Errorf("checkpoint field %s is negative (%d)", f.name, f.value)
		}
	}
	n, total := e.stream.Env().Graph.N(), 0
	for i, p := range c.Window {
		switch {
		case p.Node < 0 || p.Node >= n:
			return fmt.Errorf("checkpoint field window: node %d outside the network's %d nodes", p.Node, n)
		case p.Count < 1:
			return fmt.Errorf("checkpoint field window: node %d has %d requests, want at least 1", p.Node, p.Count)
		case i > 0 && p.Node <= c.Window[i-1].Node:
			return fmt.Errorf("checkpoint field window: node %d follows node %d, want strictly increasing nodes", p.Node, c.Window[i-1].Node)
		case p.Count >= e.windowSize-total:
			return fmt.Errorf("checkpoint field window: node %d's %d requests fill the %d-request window, which would have closed", p.Node, p.Count, e.windowSize)
		}
		total += p.Count
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
	err = json.NewEncoder(tmp).Encode(c)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
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
// for bit.
func (c *Checkpoint) matches(e *Engine) error {
	if e.Cursor() != c.Cursor || e.Round() != c.Round || e.Quarantined() != c.Quarantined ||
		!slices.Equal(e.Placement(), c.Placement) || totalsToBits(e.Totals()) != c.TotalBits {
		return fmt.Errorf("engine at cursor %d, round %d, %d quarantined, placement %v, totals %v; checkpoint has %d, %d, %d, %v, %v",
			e.Cursor(), e.Round(), e.Quarantined(), e.Placement(), totalsToBits(e.Totals()),
			c.Cursor, c.Round, c.Quarantined, c.Placement, c.TotalBits)
	}
	return nil
}

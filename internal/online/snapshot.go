package online

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// State snapshots (sim.StateSnapshotter) for the servable online
// strategies. ONTH and ONBR carry only plain data between rounds — the
// pool, epoch demand accumulators, and a few scalars — so their state
// serialises exactly: floats travel as bits (never decimal), demand
// accumulators as their sorted (node, count) pairs. ONSAMP does not
// implement the interface yet: its state is plain data too (a pool, the
// accumulated cost, the epoch start and an epoch accumulator; it uses no
// RNG), but its snapshot is still to be written (ROADMAP.md), so the
// serving layer keeps its full WAL instead of truncating.

// Interface checks: the snapshot-capable strategies.
var (
	_ sim.StateSnapshotter = (*ONTH)(nil)
	_ sim.StateSnapshotter = (*ONBR)(nil)
)

// accumPairs snapshots an accumulator as its aggregated pairs.
func accumPairs(a *cost.Accumulator) []cost.NodeCount {
	return a.Demand().Pairs()
}

// restoreAccum reinstalls snapshot pairs into a reset accumulator.
func restoreAccum(a *cost.Accumulator, pairs []cost.NodeCount) {
	a.Reset()
	a.Add(cost.DemandFromPairs(pairs...))
}

// onthState is ONTH's serialised run state.
type onthState struct {
	Pool        core.PoolState   `json:"pool"`
	SmallAccum  uint64           `json:"small_accum"` // float bits
	SmallStart  int              `json:"small_start"`
	Small       []cost.NodeCount `json:"small,omitempty"`
	LargeAccess uint64           `json:"large_access"` // float bits
	LargeRun    uint64           `json:"large_run"`    // float bits
	LargeStart  int              `json:"large_start"`
	Large       []cost.NodeCount `json:"large,omitempty"`
}

// SnapshotState implements sim.StateSnapshotter.
func (a *ONTH) SnapshotState() ([]byte, error) {
	if a.pool == nil {
		return nil, fmt.Errorf("onth: snapshot before Reset")
	}
	return json.Marshal(onthState{
		Pool:        a.pool.State(),
		SmallAccum:  math.Float64bits(a.smallAccum),
		SmallStart:  a.smallStart,
		Small:       accumPairs(a.smallAgg),
		LargeAccess: math.Float64bits(a.largeAccess),
		LargeRun:    math.Float64bits(a.largeRun),
		LargeStart:  a.largeStart,
		Large:       accumPairs(a.largeAgg),
	})
}

// RestoreState implements sim.StateSnapshotter.
func (a *ONTH) RestoreState(data []byte) error {
	if a.pool == nil {
		return fmt.Errorf("onth: restore before Reset")
	}
	var s onthState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("onth: bad state snapshot: %w", err)
	}
	a.pool.Restore(s.Pool)
	a.smallAccum = math.Float64frombits(s.SmallAccum)
	a.smallStart = s.SmallStart
	restoreAccum(a.smallAgg, s.Small)
	a.largeAccess = math.Float64frombits(s.LargeAccess)
	a.largeRun = math.Float64frombits(s.LargeRun)
	a.largeStart = s.LargeStart
	restoreAccum(a.largeAgg, s.Large)
	return nil
}

// onbrState is ONBR's serialised run state. Cluster targets are not
// captured: Reset recomputes them deterministically from the environment.
type onbrState struct {
	Pool       core.PoolState   `json:"pool"`
	Theta      uint64           `json:"theta"` // float bits
	Accum      uint64           `json:"accum"` // float bits
	EpochStart int              `json:"epoch_start"`
	Epoch      []cost.NodeCount `json:"epoch,omitempty"`
}

// SnapshotState implements sim.StateSnapshotter.
func (a *ONBR) SnapshotState() ([]byte, error) {
	if a.pool == nil {
		return nil, fmt.Errorf("onbr: snapshot before Reset")
	}
	return json.Marshal(onbrState{
		Pool:       a.pool.State(),
		Theta:      math.Float64bits(a.theta),
		Accum:      math.Float64bits(a.accum),
		EpochStart: a.epochStart,
		Epoch:      accumPairs(a.epochAgg),
	})
}

// RestoreState implements sim.StateSnapshotter.
func (a *ONBR) RestoreState(data []byte) error {
	if a.pool == nil {
		return fmt.Errorf("onbr: restore before Reset")
	}
	var s onbrState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("onbr: bad state snapshot: %w", err)
	}
	a.pool.Restore(s.Pool)
	a.theta = math.Float64frombits(s.Theta)
	a.accum = math.Float64frombits(s.Accum)
	a.epochStart = s.EpochStart
	restoreAccum(a.epochAgg, s.Epoch)
	return nil
}

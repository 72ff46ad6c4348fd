package online

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
)

// State snapshots (sim.StateSnapshotter) for every online strategy: base
// runs the strategy's state method, which lists its mutable fields once,
// in write mode for SnapshotState and in read mode for RestoreState, so
// the two cannot drift apart. Every field is 8 little-endian bytes (floats
// as exact bits) after a version byte. A read checks each value's range
// and each length against the bytes left before allocating, and refuses
// trailing bytes; after a failed RestoreState the receiver must be Reset.
const stateVersion = 1

// codec appends fields to buf, or reads them from its front (read). The
// first error sticks and turns later visits into no-ops.
type codec struct {
	buf  []byte
	read bool
	n    int // node ids lie in [0, n)
	err  error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *codec) u64(v *uint64) {
	switch {
	case c.err != nil:
	case !c.read:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	case len(c.buf) < 8:
		c.fail("truncated at %d bytes", len(c.buf))
	default:
		*v, c.buf = binary.LittleEndian.Uint64(c.buf), c.buf[8:]
	}
}

func (c *codec) f64(v *float64) {
	b := math.Float64bits(*v)
	c.u64(&b)
	*v = math.Float64frombits(b)
}

// int visits an int; a value read must lie in [lo, hi).
func (c *codec) int(v *int, lo, hi int) {
	u := uint64(*v)
	c.u64(&u)
	if *v = int(u); c.read && c.err == nil && (*v < lo || *v >= hi) {
		c.fail("value %d outside [%d, %d)", *v, lo, hi)
	}
}

// length visits the length of a slice of lo..max elements of size bytes
// each; a length read must also fit in the input it was read from.
func (c *codec) length(l, lo, max, size int) int {
	if c.int(&l, lo, min(max, len(c.buf)/size)+1); c.err != nil {
		return 0
	}
	return l
}

// floats visits a slice whose length a read must match.
func (c *codec) floats(s []float64) {
	l := len(s)
	c.int(&l, len(s), len(s)+1)
	for i := range s {
		c.f64(&s[i])
	}
}

// accum visits an accumulator as its pairs: ascending nodes, positive
// counts.
func (c *codec) accum(a *cost.Accumulator) {
	var pairs []cost.NodeCount
	if !c.read {
		pairs = a.Demand().Pairs()
	}
	if l := c.length(len(pairs), 0, c.n, 16); c.read {
		pairs = make([]cost.NodeCount, l)
	}
	for i, lo := 0, 0; i < len(pairs); i++ {
		c.int(&pairs[i].Node, lo, c.n)
		c.int(&pairs[i].Count, 1, math.MaxInt)
		lo = pairs[i].Node + 1
	}
	if c.read && c.err == nil {
		a.Reset()
		a.Add(cost.DemandFromPairs(pairs...))
	}
}

func (c *codec) epoch(e *epoch) {
	c.f64(&e.accum)
	c.int(&e.start, math.MinInt, math.MaxInt)
	c.accum(e.agg)
}

// pool visits the pool: 1..k ascending active nodes, at most the cache
// size of inactive (node, born) pairs oldest first, and the epoch.
func (c *codec) pool(b *base) {
	s := b.pool.State()
	k := b.env.Pool.MaxServers
	if k <= 0 {
		k = c.n
	}
	if l := c.length(len(s.Active), 1, k, 8); c.read {
		s.Active = make([]int, l)
	}
	for i, lo := 0, 0; i < len(s.Active); i++ {
		c.int(&s.Active[i], lo, c.n)
		lo = s.Active[i] + 1
	}
	if l := c.length(len(s.Inactive), 0, b.env.Pool.QueueCap, 16); c.read {
		s.Inactive = make([]core.ServerRef, l)
	}
	for i := range s.Inactive {
		c.int(&s.Inactive[i].Node, 0, c.n)
		c.int(&s.Inactive[i].Born, math.MinInt, math.MaxInt)
	}
	c.int(&s.Epoch, math.MinInt, math.MaxInt)
	if c.read && c.err == nil {
		b.pool.Restore(s)
	}
}

// config visits the current configuration's index, which a read requires
// to match the pool's active placement.
func (c *codec) config(s *confSpace, b *base) {
	c.int(&s.cur, 0, len(s.configs))
	if c.read && c.err == nil && !s.configs[s.cur].Equal(b.pool.Active()) {
		c.fail("configuration %v, pool holds %v", s.configs[s.cur], b.pool.Active())
	}
}

// SnapshotState implements sim.StateSnapshotter.
func (b *base) SnapshotState() ([]byte, error) {
	if b.state == nil {
		return nil, fmt.Errorf("online: snapshot before Reset")
	}
	c := &codec{buf: []byte{stateVersion}, n: b.env.Graph.N()}
	b.state(c)
	return c.buf, c.err
}

// RestoreState implements sim.StateSnapshotter.
func (b *base) RestoreState(data []byte) error {
	if b.state == nil {
		return fmt.Errorf("online: restore before Reset")
	}
	c := &codec{read: true, n: b.env.Graph.N()}
	if len(data) == 0 || data[0] != stateVersion {
		c.fail("not a version %d snapshot", stateVersion)
	} else {
		c.buf = data[1:]
		b.state(c)
	}
	if c.err == nil && len(c.buf) > 0 {
		c.fail("%d trailing bytes", len(c.buf))
	}
	if c.err != nil {
		return fmt.Errorf("online: bad state snapshot: %w", c.err)
	}
	return nil
}

func (a *ONTH) state(c *codec) {
	c.pool(&a.base)
	c.epoch(&a.small)
	c.epoch(&a.large)
	c.f64(&a.largeRun)
}

// state omits the cluster targets, which Reset recomputes.
func (a *ONBR) state(c *codec) {
	c.pool(&a.base)
	c.f64(&a.theta)
	c.epoch(&a.epoch)
}

func (a *ONSAMP) state(c *codec) {
	c.pool(&a.base)
	c.epoch(&a.epoch)
}

// state keeps the work function; the round's scratch values, cluster
// minima and move-rule buffers are rebuilt every round.
func (a *WFA) state(c *codec) {
	c.pool(&a.base)
	c.config(&a.confSpace, &a.base)
	c.floats(a.work)
}

// state keeps the counters and the random stream's position as a count
// of draws, not the draws themselves.
func (a *ONCONF) state(c *codec) {
	c.pool(&a.base)
	c.config(&a.confSpace, &a.base)
	c.floats(a.counters)
	c.int(&a.draws, 0, math.MaxInt)
}

// RestoreState implements sim.StateSnapshotter. The receiver's Rand must
// be seeded as the snapshotted instance's was and not drawn from yet;
// restore advances it by the recorded draw count. Every draw belongs to a
// switch, every switch ends a pool epoch, and Int31n rejects a draw with
// probability below n/2^31, so a count above 2·epoch + 64 is refused as
// corrupt rather than skipped.
func (a *ONCONF) RestoreState(data []byte) error {
	if a.draws != 0 {
		return fmt.Errorf("onconf: restore needs an unused random source, this one made %d draws", a.draws)
	}
	if err := a.base.RestoreState(data); err != nil {
		return err
	}
	if limit := 2*a.pool.Epoch() + 64; a.draws > limit {
		return fmt.Errorf("onconf: bad state snapshot: %d draws, at most %d for pool epoch %d", a.draws, limit, a.pool.Epoch())
	}
	for i := 0; i < a.draws; i++ {
		a.Rand.Int63()
	}
	return nil
}

package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// ---------------------------------------------------------------------------
// Naive references: verbatim copies of the pre-scenario-engine generator
// loops, retained so the composable refactoring stays pinned bit-identical.

func naiveSpread(ph, T int) int {
	if ph <= T/2 {
		return ph
	}
	return T - ph
}

func naiveFanPoints(i, n int) int {
	points := 1 << uint(i)
	if points > n {
		points = n
	}
	return points
}

func naiveDistribute(order []int, points, total int) map[int]int {
	counts := make(map[int]int, points)
	per, rem := total/points, total%points
	for j := 0; j < points; j++ {
		c := per
		if j < rem {
			c++
		}
		if c > 0 {
			counts[order[j]] = c
		}
	}
	return counts
}

func naiveCenterOrdering(m *graph.Matrix) []int {
	center := graph.CenterOf(m)
	order := make([]int, m.N())
	for i := range order {
		order[i] = i
	}
	row := m.Row(center)
	sort.SliceStable(order, func(a, b int) bool {
		da, db := row[order[a]], row[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

func naiveCommuter(m *graph.Matrix, cfg CommuterConfig, rounds int, dynamic bool) []cost.Demand {
	order := naiveCenterOrdering(m)
	demands := make([]cost.Demand, rounds)
	for t := 0; t < rounds; t++ {
		ph := (t / cfg.Lambda) % cfg.T
		total := 1 << uint(cfg.T/2)
		if dynamic {
			total = 1 << uint(naiveSpread(ph, cfg.T))
		}
		points := naiveFanPoints(naiveSpread(ph, cfg.T), m.N())
		demands[t] = cost.DemandFromCounts(naiveDistribute(order, points, total))
	}
	return demands
}

func naiveTimeZones(n int, cfg TimeZonesConfig, rounds int, rng *rand.Rand) []cost.Demand {
	reqs := cfg.RequestsPerRound
	if reqs == 0 {
		reqs = 1 << uint(TForSize(n)/2)
	}
	hotspots := make([]int, cfg.T)
	for i := range hotspots {
		hotspots[i] = rng.Intn(n)
	}
	hotCount := int(math.Round(cfg.P * float64(reqs)))
	demands := make([]cost.Demand, rounds)
	for t := 0; t < rounds; t++ {
		period := (t / cfg.Lambda) % cfg.T
		counts := make(map[int]int, reqs-hotCount+1)
		if hotCount > 0 {
			counts[hotspots[period]] += hotCount
		}
		for r := hotCount; r < reqs; r++ {
			counts[rng.Intn(n)]++
		}
		demands[t] = cost.DemandFromCounts(counts)
	}
	return demands
}

// ---------------------------------------------------------------------------

func parityGraph(t *testing.T, n int, seed int64) *graph.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.ErdosRenyi(n, 0.05, gen.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g.Metric()
}

// demandsEqual asserts two sequences are bit-identical: same horizon and,
// per round, exactly the same (node, count) pairs.
func demandsEqual(t *testing.T, label string, got *Sequence, want []cost.Demand) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rounds, reference %d", label, got.Len(), len(want))
	}
	for r := 0; r < got.Len(); r++ {
		gp, wp := got.Demand(r).Pairs(), want[r].Pairs()
		if len(gp) != len(wp) {
			t.Fatalf("%s round %d: %d pairs, reference %d\n got %v\nwant %v",
				label, r, len(gp), len(wp), got.Demand(r), want[r])
		}
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("%s round %d pair %d: %+v, reference %+v", label, r, i, gp[i], wp[i])
			}
		}
	}
}

// TestCommuterMatchesNaiveReference pins both commuter variants, rebuilt on
// the scenario engine, bit-identical to the original round loop across
// seeds, fan saturation (T too large for the network), and λ values.
func TestCommuterMatchesNaiveReference(t *testing.T) {
	cases := []struct {
		n      int
		seed   int64
		T      int
		lambda int
	}{
		{40, 1, 8, 10},
		{40, 7, 8, 1},
		{10, 1, 10, 3}, // 2^(T/2) = 32 > n: fan saturates at the network size
		{25, 7, 4, 20},
	}
	for _, tc := range cases {
		m := parityGraph(t, tc.n, tc.seed)
		cfg := CommuterConfig{T: tc.T, Lambda: tc.lambda}
		for _, dynamic := range []bool{false, true} {
			got, err := commuter(m, cfg, 120, dynamic)
			if err != nil {
				t.Fatal(err)
			}
			demandsEqual(t, got.Name(), got, naiveCommuter(m, cfg, 120, dynamic))
		}
	}
}

// TestTimeZonesMatchesNaiveReference pins the time-zones scenario, rebuilt
// as RotatingHotspot + Noise, bit-identical to the original loop — the RNG
// draw order must be preserved exactly.
func TestTimeZonesMatchesNaiveReference(t *testing.T) {
	cases := []struct {
		n    int
		seed int64
		cfg  TimeZonesConfig
	}{
		{40, 1, TimeZonesConfig{T: 6, P: 0.5, Lambda: 10}},
		{40, 7, TimeZonesConfig{T: 6, P: 0.5, Lambda: 10}},
		{30, 3, TimeZonesConfig{T: 4, P: 0, Lambda: 5, RequestsPerRound: 9}}, // pure noise
		{30, 3, TimeZonesConfig{T: 4, P: 1, Lambda: 5, RequestsPerRound: 9}}, // pure hotspot
		{12, 11, TimeZonesConfig{T: 3, P: 0.3, Lambda: 2, RequestsPerRound: 7}},
	}
	for _, tc := range cases {
		m := parityGraph(t, tc.n, tc.seed)
		got, err := TimeZones(m, tc.cfg, 90, rand.New(rand.NewSource(tc.seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTimeZones(m.N(), tc.cfg, 90, rand.New(rand.NewSource(tc.seed)))
		demandsEqual(t, got.Name(), got, want)
	}
}

// TestScenariosDeterministic: the same seed yields byte-identical sequences
// for every scenario, including the new composable ones.
func TestScenariosDeterministic(t *testing.T) {
	m := parityGraph(t, 40, 5)
	builders := map[string]func(seed int64) (*Sequence, error){
		"commuter-dynamic": func(int64) (*Sequence, error) {
			return CommuterDynamic(m, CommuterConfig{T: 8, Lambda: 5}, 100)
		},
		"time-zones": func(seed int64) (*Sequence, error) {
			return TimeZones(m, TimeZonesConfig{T: 5, P: 0.5, Lambda: 7}, 100, rand.New(rand.NewSource(seed)))
		},
		"flash-crowd": func(seed int64) (*Sequence, error) {
			return FlashCrowd(m, FlashCrowdConfig{BaseRequests: 6, Spikes: 3, Peak: 30, Tau: 8, Growth: 0.5}, 100, rand.New(rand.NewSource(seed)))
		},
		"diurnal": func(seed int64) (*Sequence, error) {
			return DiurnalMultiRegion(m, DiurnalConfig{Regions: 3, Period: 24, HotShare: 0.6, RequestsPerRound: 12}, 100, rand.New(rand.NewSource(seed)))
		},
		"weekly": func(seed int64) (*Sequence, error) {
			return WeekdayWeekend(m, WeeklyConfig{DayLen: 10, T: 6, WeekendRequests: 3}, 100, rand.New(rand.NewSource(seed)))
		},
	}
	labels := make([]string, 0, len(builders))
	for label := range builders {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		build := builders[label]
		a, err := build(42)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := build(42)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if a.Name() != b.Name() {
			t.Fatalf("%s: names differ: %q vs %q", label, a.Name(), b.Name())
		}
		want := make([]cost.Demand, b.Len())
		for r := range want {
			want[r] = b.Demand(r)
		}
		demandsEqual(t, label, a, want)
	}
}

// TestDiurnalVolumeIndependentOfRegions pins the window tiling: the k
// daytime windows cover the whole day for every k, so the total demand
// volume is the same at every region count (the ScenarioDiurnal sweep
// compares strategies at equal traffic).
func TestDiurnalVolumeIndependentOfRegions(t *testing.T) {
	m := parityGraph(t, 40, 5)
	const rounds, period, reqs = 160, 80, 12 // period%k != 0 for k=3 and 6
	want := -1
	for _, k := range []int{2, 3, 4, 6} {
		seq, err := DiurnalMultiRegion(m, DiurnalConfig{
			Regions: k, Period: period, HotShare: 0.5, RequestsPerRound: reqs,
		}, rounds, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		got := seq.TotalRequests()
		if want < 0 {
			want = got
		}
		if got != want {
			t.Fatalf("k=%d: %d total requests, want %d (independent of k)", k, got, want)
		}
		// Exactly one region is hot in every round.
		for r := 0; r < rounds; r++ {
			if total := seq.Demand(r).Total(); total != reqs {
				t.Fatalf("k=%d round %d: %d requests, want %d", k, r, total, reqs)
			}
		}
	}
}

// TestWeeklyDaysStartAligned pins the weekday structure: every weekday
// plays the fan cycle from phase 0 (a single request at the center), so
// days never start mid-fan, and weekend rounds carry only the noise floor.
func TestWeeklyDaysStartAligned(t *testing.T) {
	m := parityGraph(t, 40, 5)
	const day = 10
	seq, err := WeekdayWeekend(m, WeeklyConfig{DayLen: day, T: 6, WeekendRequests: 3}, 2*7*day,
		rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 14; d++ {
		first := seq.Demand(d * day)
		if d%7 < 5 {
			// Fan phase 0: one request at the network center.
			if first.Total() != 1 {
				t.Fatalf("weekday %d starts with %v, want a single phase-0 request", d, first)
			}
		} else if first.Total() != 3 {
			t.Fatalf("weekend day %d starts with %v, want the 3-request noise floor", d, first)
		}
	}
}

// TestFlashCrowdGrowthThinsBackground pins the Growth knob: the early
// background volume must actually be thinner than the late one (a volume
// profile, not all-or-nothing unit rounding).
func TestFlashCrowdGrowthThinsBackground(t *testing.T) {
	m := parityGraph(t, 40, 5)
	const rounds, base = 100, 16
	seq, err := FlashCrowd(m, FlashCrowdConfig{
		BaseRequests: base, Spikes: 1, Peak: 1, Tau: 1, Growth: 0.25,
	}, rounds, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Demand(0).Total(); got < base/4-1 || got > base/4+2 {
		t.Fatalf("round 0 volume %d, want ≈ %d (Growth=0.25 of base %d)", got, base/4, base)
	}
	if got := seq.Demand(rounds - 1).Total(); got < base {
		t.Fatalf("final round volume %d, want ≥ %d (ramped to full)", got, base)
	}
	// Strictly increasing in aggregate: first quarter thinner than last.
	first := seq.Aggregate(0, rounds/4).Total()
	last := seq.Aggregate(3*rounds/4, rounds).Total()
	if first >= last {
		t.Fatalf("background did not grow: first quarter %d, last quarter %d", first, last)
	}
}

// TestSequenceConcurrentReads replays a built sequence from many goroutines
// under -race: sequences are immutable after construction.
func TestSequenceConcurrentReads(t *testing.T) {
	m := parityGraph(t, 30, 9)
	seq, err := FlashCrowd(m, FlashCrowdConfig{BaseRequests: 5, Spikes: 2}, 80, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func() {
			total := 0
			for r := -5; r < seq.Len()+5; r++ {
				total += seq.Demand(r).Total()
			}
			_ = seq.Slice(10, 50)
			_ = seq.Aggregate(0, seq.Len())
			done <- total
		}()
	}
	first := <-done
	for w := 1; w < 8; w++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent replay diverged: %d vs %d", got, first)
		}
	}
}

// TestSliceAndDemandBounds is the bounds-handling audit: Slice, Demand, and
// Aggregate must clamp every out-of-range combination instead of panicking,
// and empty rounds must flow through cost.Accumulator unchanged.
func TestSliceAndDemandBounds(t *testing.T) {
	demands := []cost.Demand{
		cost.DemandFromPairs(cost.NodeCount{Node: 0, Count: 2}),
		{}, // an empty round inside the horizon
		cost.DemandFromPairs(cost.NodeCount{Node: 1, Count: 3}),
	}
	s := NewSequence("bounds", demands)

	sliceCases := []struct {
		from, to int
		wantLen  int
		wantReq  int
	}{
		{0, 3, 3, 5},
		{1, 2, 1, 0},   // the empty round alone
		{-4, 2, 2, 2},  // negative from clamps to 0
		{0, 99, 3, 5},  // beyond-horizon to clamps to Len
		{2, -1, 0, 0},  // negative to: clamps, then inverts to empty (panicked before the fix)
		{-7, -2, 0, 0}, // both negative
		{3, 1, 0, 0},   // inverted range
		{99, 99, 0, 0}, // past the horizon
	}
	for _, tc := range sliceCases {
		got := s.Slice(tc.from, tc.to)
		if got.Len() != tc.wantLen || got.TotalRequests() != tc.wantReq {
			t.Errorf("Slice(%d,%d): len %d total %d, want len %d total %d",
				tc.from, tc.to, got.Len(), got.TotalRequests(), tc.wantLen, tc.wantReq)
		}
		if got.Name() != s.Name() {
			t.Errorf("Slice(%d,%d) renamed the sequence to %q", tc.from, tc.to, got.Name())
		}
	}

	for _, r := range []int{-1, -99, 3, 42} {
		if d := s.Demand(r); !d.Empty() {
			t.Errorf("Demand(%d) = %v, want empty", r, d)
		}
	}

	aggCases := []struct {
		from, to int
		want     int
	}{
		{0, 3, 5},
		{-5, 99, 5},
		{2, -1, 0},
		{1, 1, 0},
		{1, 2, 0}, // aggregating only the empty round
	}
	for _, tc := range aggCases {
		if got := s.Aggregate(tc.from, tc.to).Total(); got != tc.want {
			t.Errorf("Aggregate(%d,%d).Total() = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}

	// Empty rounds through the accumulator: folding the whole horizon,
	// empty rounds included, must equal Aggregate over it.
	acc := cost.NewAccumulator(4)
	for r := 0; r < s.Len(); r++ {
		acc.Add(s.Demand(r))
	}
	if got, want := acc.Demand(), s.Aggregate(0, s.Len()); got.String() != want.String() {
		t.Errorf("accumulated %v, aggregate %v", got, want)
	}
	acc.Reset()
	acc.Add(cost.Demand{})
	if got := acc.Demand(); !got.Empty() {
		t.Errorf("accumulating only empty demands yields %v, want empty", got)
	}
}

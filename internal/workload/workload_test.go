package workload

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func lineMatrix(n int) *graph.Matrix {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1, 1)
	}
	return g.AllPairs()
}

func TestSequenceBasics(t *testing.T) {
	s := NewSequence("x", []cost.Demand{
		cost.DemandFromList([]int{1}),
		cost.DemandFromList([]int{2, 2}),
	})
	if s.Len() != 2 || s.Name() != "x" {
		t.Fatal("basic accessors wrong")
	}
	if s.Demand(0).Total() != 1 || s.Demand(1).Total() != 2 {
		t.Fatal("demand lookup wrong")
	}
	if !s.Demand(-1).Empty() || !s.Demand(5).Empty() {
		t.Fatal("out-of-range demand must be empty")
	}
	if s.TotalRequests() != 3 {
		t.Fatalf("TotalRequests = %d, want 3", s.TotalRequests())
	}
	agg := s.Aggregate(0, 2)
	if agg.Total() != 3 || agg.Count(2) != 2 {
		t.Fatalf("aggregate = %v", agg)
	}
	if s.Aggregate(2, 1).Total() != 0 {
		t.Fatal("inverted aggregate range must be empty")
	}
	sl := s.Slice(1, 5)
	if sl.Len() != 1 || sl.Demand(0).Total() != 2 {
		t.Fatal("slice wrong")
	}
}

func TestTForSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 6}, {100, 12}, {1000, 18},
	}
	for _, c := range cases {
		if got := TForSize(c.n); got != c.want {
			t.Errorf("TForSize(%d) = %d, want %d", c.n, got, c.want)
		}
		if points := 1 << uint(TForSize(c.n)/2); points > c.n {
			t.Errorf("TForSize(%d) = %d overflows the network", c.n, TForSize(c.n))
		}
	}
}

func TestCommuterStaticConservation(t *testing.T) {
	// "The total number of requests per round is fixed to 2^(T/2)."
	m := lineMatrix(40)
	cfg := CommuterConfig{T: 8, Lambda: 3}
	s, err := CommuterStatic(m, cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 << 4 // 16
	for tt := 0; tt < s.Len(); tt++ {
		if got := s.Demand(tt).Total(); got != want {
			t.Fatalf("round %d: total = %d, want %d", tt, got, want)
		}
	}
}

func TestCommuterStaticFanOutAndIn(t *testing.T) {
	m := lineMatrix(40)
	cfg := CommuterConfig{T: 8, Lambda: 1}
	s, err := CommuterStatic(m, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := []int{1, 2, 4, 8, 16, 8, 4, 2} // 2^spread(ph,8)
	for ph, want := range wantPoints {
		if got := s.Demand(ph).Distinct(); got != want {
			t.Fatalf("phase %d: %d access points, want %d", ph, got, want)
		}
	}
	// Day wraps: round 8 repeats phase 0.
	s2, _ := CommuterStatic(m, cfg, 9)
	if s2.Demand(8).Distinct() != 1 {
		t.Fatal("day did not wrap to single access point")
	}
}

func TestCommuterStaticCenterIsAlwaysHot(t *testing.T) {
	m := lineMatrix(33)
	center := graph.CenterOf(m)
	s, err := CommuterStatic(m, CommuterConfig{T: 6, Lambda: 2}, 60)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < s.Len(); tt++ {
		if s.Demand(tt).Count(center) == 0 {
			t.Fatalf("round %d: network center has no requests", tt)
		}
	}
}

func TestCommuterDynamicLoadSwings(t *testing.T) {
	m := lineMatrix(40)
	cfg := CommuterConfig{T: 8, Lambda: 1}
	s, err := CommuterDynamic(m, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantTotals := []int{1, 2, 4, 8, 16, 8, 4, 2}
	for ph, want := range wantTotals {
		d := s.Demand(ph)
		if d.Total() != want {
			t.Fatalf("phase %d: total = %d, want %d", ph, d.Total(), want)
		}
		// Dynamic load: exactly one request per access point.
		for _, p := range d.Pairs() {
			if p.Count != 1 {
				t.Fatalf("phase %d: node %d has %d requests, want 1", ph, p.Node, p.Count)
			}
		}
	}
}

func TestCommuterLambdaStretchesPhases(t *testing.T) {
	m := lineMatrix(40)
	s, err := CommuterDynamic(m, CommuterConfig{T: 4, Lambda: 5}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 5; tt++ {
		if s.Demand(tt).Total() != 1 {
			t.Fatalf("round %d: phase 0 should last λ=5 rounds", tt)
		}
	}
	if s.Demand(5).Total() != 2 {
		t.Fatal("phase did not advance after λ rounds")
	}
}

func TestCommuterValidation(t *testing.T) {
	m := lineMatrix(10)
	bad := []CommuterConfig{
		{T: 3, Lambda: 1},  // odd T
		{T: 0, Lambda: 1},  // T too small
		{T: 4, Lambda: 0},  // λ too small
		{T: 64, Lambda: 1}, // 2^32 requests overflow
	}
	for i, cfg := range bad {
		if _, err := CommuterStatic(m, cfg, 10); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
		if _, err := CommuterDynamic(m, cfg, 10); err == nil {
			t.Errorf("case %d: dynamic config %+v accepted", i, cfg)
		}
	}
}

func TestCommuterFanSaturatesAtNetworkSize(t *testing.T) {
	// T = 10 wants 2^5 = 32 access points on a 10-node network: the
	// generators must keep the 32-request volume but spread it over all 10
	// nodes instead of failing.
	m := lineMatrix(10)
	s, err := CommuterStatic(m, CommuterConfig{T: 10, Lambda: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < s.Len(); tt++ {
		d := s.Demand(tt)
		if d.Total() != 32 {
			t.Fatalf("round %d: total = %d, want 32", tt, d.Total())
		}
		if d.Distinct() > 10 {
			t.Fatalf("round %d: %d access points on a 10-node network", tt, d.Distinct())
		}
	}
	dyn, err := CommuterDynamic(m, CommuterConfig{T: 10, Lambda: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Demand(5).Total() != 32 || dyn.Demand(5).Distinct() != 10 {
		t.Fatalf("dynamic saturation wrong: %v", dyn.Demand(5))
	}
}

func TestTimeZonesHotspotShare(t *testing.T) {
	m := lineMatrix(50)
	cfg := TimeZonesConfig{T: 4, P: 0.5, Lambda: 2, RequestsPerRound: 40}
	rng := rand.New(rand.NewSource(7))
	s, err := TimeZones(m, cfg, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < s.Len(); tt++ {
		d := s.Demand(tt)
		if d.Total() != 40 {
			t.Fatalf("round %d: total = %d, want 40", tt, d.Total())
		}
		// Some node (the hotspot) must carry at least p·R = 20 requests.
		max := 0
		for _, p := range d.Pairs() {
			if p.Count > max {
				max = p.Count
			}
		}
		if max < 20 {
			t.Fatalf("round %d: hottest node has %d requests, want ≥ 20", tt, max)
		}
	}
}

func TestTimeZonesHotspotsRepeatDaily(t *testing.T) {
	m := lineMatrix(50)
	cfg := TimeZonesConfig{T: 3, P: 1.0, Lambda: 1, RequestsPerRound: 5}
	s, err := TimeZones(m, cfg, 9, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	// With p=1 all requests sit on the period's hotspot; hotspots must be
	// "the same each day".
	hotspot := func(tt int) int { return s.Demand(tt).Pairs()[0].Node }
	for period := 0; period < 3; period++ {
		if hotspot(period) != hotspot(period+3) || hotspot(period) != hotspot(period+6) {
			t.Fatalf("period %d hotspot changed across days", period)
		}
	}
}

func TestTimeZonesDefaultVolume(t *testing.T) {
	m := lineMatrix(100)
	cfg := TimeZonesConfig{T: 2, P: 0.5, Lambda: 1}
	s, err := TimeZones(m, cfg, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 << uint(TForSize(100)/2) // 2^6 = 64
	if s.Demand(0).Total() != want {
		t.Fatalf("default volume = %d, want %d", s.Demand(0).Total(), want)
	}
}

func TestTimeZonesValidation(t *testing.T) {
	m := lineMatrix(10)
	rng := rand.New(rand.NewSource(1))
	bad := []TimeZonesConfig{
		{T: 0, P: 0.5, Lambda: 1},
		{T: 2, P: -0.1, Lambda: 1},
		{T: 2, P: 1.5, Lambda: 1},
		{T: 2, P: 0.5, Lambda: 0},
		{T: 2, P: 0.5, Lambda: 1, RequestsPerRound: -1},
	}
	for i, cfg := range bad {
		if _, err := TimeZones(m, cfg, 5, rng); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestUniform(t *testing.T) {
	s, err := Uniform(20, 7, 30, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < s.Len(); tt++ {
		if s.Demand(tt).Total() != 7 {
			t.Fatalf("round %d: total = %d, want 7", tt, s.Demand(tt).Total())
		}
	}
	if _, err := Uniform(0, 1, 1, rand.New(rand.NewSource(13))); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := Uniform(5, -1, 1, rand.New(rand.NewSource(13))); err == nil {
		t.Error("negative volume accepted")
	}
}

func TestOnOffConservesUsers(t *testing.T) {
	s, err := OnOff(30, 12, 2, 5, 50, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < s.Len(); tt++ {
		if s.Demand(tt).Total() != 12 {
			t.Fatalf("round %d: %d users, want 12", tt, s.Demand(tt).Total())
		}
	}
}

func TestOnOffUsersMove(t *testing.T) {
	s, err := OnOff(30, 1, 1, 1, 20, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	// With sojourn 1 the single user relocates every round; over 20 rounds
	// on 30 nodes it is vanishingly unlikely to sit still throughout.
	first := s.Demand(0).Pairs()[0].Node
	moved := false
	for tt := 1; tt < s.Len(); tt++ {
		if s.Demand(tt).Pairs()[0].Node != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("on/off user never moved")
	}
}

func TestOnOffValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	if _, err := OnOff(0, 1, 1, 1, 1, rng); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := OnOff(5, -1, 1, 1, 1, rng); err == nil {
		t.Error("negative users accepted")
	}
	if _, err := OnOff(5, 1, 0, 1, 1, rng); err == nil {
		t.Error("zero min stay accepted")
	}
	if _, err := OnOff(5, 1, 3, 2, 1, rng); err == nil {
		t.Error("inverted stay range accepted")
	}
}

func TestCommuterOnERGraph(t *testing.T) {
	// End-to-end: the generators must work on the paper's ER substrates.
	rng := rand.New(rand.NewSource(29))
	g, err := gen.ErdosRenyi(100, 0.05, gen.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := g.AllPairs()
	s, err := CommuterStatic(m, CommuterConfig{T: TForSize(100), Lambda: 4}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRequests() != 50*(1<<uint(TForSize(100)/2)) {
		t.Fatal("conservation violated on ER graph")
	}
}

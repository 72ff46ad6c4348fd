package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

// run builds the named spec under quick() and runs it on the default
// in-process runner, the one way a figure is run.
func run(name string) (*trace.Table, error) {
	spec, err := NewSpec(name, quick())
	if err != nil {
		return nil, err
	}
	return runner.Run(spec, nil)
}

func checkTable(t *testing.T, tab *trace.Table, err error, wantSeries int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", tab.Title, len(tab.Series), wantSeries)
	}
	if len(tab.X) == 0 {
		t.Fatalf("%s: empty x axis", tab.Title)
	}
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s/%s[%d] = %v", tab.Title, s.Label, i, v)
			}
		}
	}
}

func TestFigure1QuadraticUsesMoreServers(t *testing.T) {
	tab, err := run("1")
	checkTable(t, tab, err, 2)
	// Average active servers: the quadratic series must not trail linear.
	mean := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	lin, quad := mean(tab.Series[0].Values), mean(tab.Series[1].Values)
	if quad < lin-0.3 {
		t.Fatalf("quadratic load used fewer servers (%v) than linear (%v)", quad, lin)
	}
}

func TestFigure2Converges(t *testing.T) {
	tab, err := run("2")
	checkTable(t, tab, err, 2)
	// Static load: the server count in the last quarter should be stable
	// (vary by at most 2 servers) for the linear series.
	vals := tab.Series[0].Values
	tail := vals[3*len(vals)/4:]
	min, max := tail[0], tail[0]
	for _, v := range tail {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 2 {
		t.Fatalf("linear series still swinging by %v servers near the horizon", max-min)
	}
}

func TestFigure3ONTHWins(t *testing.T) {
	tab, err := run("3")
	checkTable(t, tab, err, 3)
	// ONTH (series 2) must beat ONBR-fixed (series 0) on average — the
	// paper's headline comparison.
	sumONBR, sumONTH := 0.0, 0.0
	for i := range tab.X {
		sumONBR += tab.Series[0].Values[i]
		sumONTH += tab.Series[2].Values[i]
	}
	if sumONTH >= sumONBR {
		t.Fatalf("ONTH total %v not below ONBR-fixed %v", sumONTH, sumONBR)
	}
}

func TestFigure3CostGrowsWithSize(t *testing.T) {
	tab, err := run("3")
	checkTable(t, tab, err, 3)
	first, last := tab.Series[2].Values[0], tab.Series[2].Values[len(tab.X)-1]
	if last <= first {
		t.Fatalf("ONTH cost did not grow with network size: %v -> %v", first, last)
	}
}

func TestFigure4Runs(t *testing.T) {
	tab, err := run("4")
	checkTable(t, tab, err, 3)
}

func TestFigure5Runs(t *testing.T) {
	tab, err := run("5")
	checkTable(t, tab, err, 3)
}

func TestFigure6NoMigrationWhenBetaExceedsC(t *testing.T) {
	tab, err := run("6")
	checkTable(t, tab, err, 4)
	for i, v := range tab.Series[2].Values { // migration series
		if v != 0 {
			t.Fatalf("x=%v: migration cost %v under β>c", tab.X[i], v)
		}
	}
	// Creation must be non-trivial (servers are built as demand fans out).
	nonzero := false
	for _, v := range tab.Series[3].Values {
		if v > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no creation cost at all")
	}
}

func TestFigure7Runs(t *testing.T) {
	tab, err := run("7")
	checkTable(t, tab, err, 3)
}

func TestFigure8ONTHFactorTwo(t *testing.T) {
	tab, err := run("8")
	checkTable(t, tab, err, 3)
	// "ONTH is better by a factor of approximately two" at the paper's
	// scale; the scaled-down quick instance must still show a clear
	// advantage (the full-scale factor is recorded in EXPERIMENTS.md).
	sumONBR, sumONTH := 0.0, 0.0
	for i := range tab.X {
		sumONBR += tab.Series[0].Values[i]
		sumONTH += tab.Series[2].Values[i]
	}
	if sumONBR < 1.05*sumONTH {
		t.Fatalf("ONBR/ONTH = %v, want ≥ 1.05", sumONBR/sumONTH)
	}
}

func TestFigure9Runs(t *testing.T) {
	tab, err := run("9")
	checkTable(t, tab, err, 3)
}

func TestFigure10Runs(t *testing.T) {
	tab, err := run("10")
	checkTable(t, tab, err, 3)
}

func TestFigure11RatiosAtLeastOne(t *testing.T) {
	tab, err := run("11")
	checkTable(t, tab, err, 3)
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if v < 1-1e-9 {
				t.Fatalf("%s at λ=%v: ONTH/OPT = %v < 1 (OPT not optimal?)", s.Label, tab.X[i], v)
			}
			if v > 30 {
				t.Fatalf("%s at λ=%v: ratio %v implausibly high", s.Label, tab.X[i], v)
			}
		}
	}
}

func TestFigure12CurveHasMinimum(t *testing.T) {
	tab, err := run("12")
	checkTable(t, tab, err, 1)
	vals := tab.Series[0].Values
	if len(vals) < 3 {
		t.Fatalf("curve too short: %d", len(vals))
	}
}

func TestFigure13OPTBelowOFFSTAT(t *testing.T) {
	tab, err := run("13")
	checkTable(t, tab, err, 2)
	for i := range tab.X {
		if tab.Series[1].Values[i] > tab.Series[0].Values[i]+1e-6 {
			t.Fatalf("λ=%v: OPT %v above OFFSTAT %v", tab.X[i], tab.Series[1].Values[i], tab.Series[0].Values[i])
		}
	}
}

func TestFigure14Runs(t *testing.T) {
	tab, err := run("14")
	checkTable(t, tab, err, 2)
}

func TestFigure15RatiosAtLeastOne(t *testing.T) {
	tab, err := run("15")
	checkTable(t, tab, err, 2)
	for _, s := range tab.Series {
		for i, v := range s.Values {
			if v < 1-1e-9 {
				t.Fatalf("%s at λ=%v: OFFSTAT/OPT = %v < 1", s.Label, tab.X[i], v)
			}
		}
	}
}

func TestFigure16Runs(t *testing.T) {
	tab, err := run("16")
	checkTable(t, tab, err, 2)
}

func TestFigure17Runs(t *testing.T) {
	tab, err := run("17")
	checkTable(t, tab, err, 2)
}

func TestFigure18Runs(t *testing.T) {
	tab, err := run("18")
	checkTable(t, tab, err, 2)
}

func TestFigure19Runs(t *testing.T) {
	tab, err := run("19")
	checkTable(t, tab, err, 2)
}

func TestTableRocketfuelOrdering(t *testing.T) {
	tab, err := run("rocketfuel")
	checkTable(t, tab, err, 5)
	offstat, onth, onbr := tab.Series[0].Values[0], tab.Series[1].Values[0], tab.Series[2].Values[0]
	// The paper's qualitative result: OFFSTAT < ONTH < ONBR.
	if !(offstat < onth && onth < onbr) {
		t.Fatalf("ordering violated: OFFSTAT=%v ONTH=%v ONBR-fixed=%v", offstat, onth, onbr)
	}
	if onth/offstat > 3.5 {
		t.Fatalf("ONTH/OFFSTAT = %v, paper reports < 2", onth/offstat)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, name := range []string{"assign", "expiry", "load", "queue", "theta", "y"} {
		tab, err := run("ablation-" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range tab.Series {
			for i, v := range s.Values {
				if math.IsNaN(v) || v <= 0 {
					t.Fatalf("%s: %s[%d] = %v", name, s.Label, i, v)
				}
			}
		}
	}
}

func TestCompareOnlineVariants(t *testing.T) {
	tab, err := run("variants")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 7 {
		t.Fatalf("%d variants, want 7", len(tab.Series))
	}
	for _, s := range tab.Series {
		total, ratio := s.Values[0], s.Values[1]
		if total <= 0 || math.IsNaN(total) {
			t.Fatalf("%s: total %v", s.Label, total)
		}
		if ratio < 1-1e-9 {
			t.Fatalf("%s: beat OPT with ratio %v", s.Label, ratio)
		}
		if ratio > 50 {
			t.Fatalf("%s: ratio %v implausible", s.Label, ratio)
		}
	}
}

func TestOptionsDeterministic(t *testing.T) {
	a, err := run("13")
	if err != nil {
		t.Fatal(err)
	}
	b, err := run("13")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		for si := range a.Series {
			if a.Series[si].Values[i] != b.Series[si].Values[i] {
				t.Fatalf("same options produced different results at x=%v", a.X[i])
			}
		}
	}
}

func TestSpecRegistry(t *testing.T) {
	names := SpecNames()
	if len(names) != 31 {
		t.Fatalf("%d specs registered, want 31", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("spec %q registered twice", name)
		}
		seen[name] = true
		spec, err := NewSpec(name, quick())
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name || spec.Options != quick().String() {
			t.Fatalf("spec %q built under name %q, options %q", name, spec.Name, spec.Options)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewSpec("no-such-figure", quick()); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestOptionsRoundTrip pins the options text workers and partial files
// carry: ParseOptions inverts String, defaults are spelled out, and any
// other text is refused.
func TestOptionsRoundTrip(t *testing.T) {
	for _, o := range []Options{{}, {Quick: true, Seed: 7}, {Seed: -3, Metric: "landmark:2"}, {Metric: "sparse:64"}} {
		back, err := ParseOptions(o.String())
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != o.String() {
			t.Fatalf("%q parsed back as %q", o.String(), back.String())
		}
	}
	if got := (Options{}).String(); got != "seed=1 quick=false metric=dense" {
		t.Fatalf("zero Options = %q", got)
	}
	for _, bad := range []string{"", "seed=1", "seed=1 quick=false metric=dense x", "seed=1 quick=no metric=dense", "seed=01 quick=false metric=dense"} {
		if _, err := ParseOptions(bad); err == nil {
			t.Fatalf("ParseOptions(%q) accepted", bad)
		}
	}
}

// TestSpecMatchesFigureFunction pins the grid decomposition to the worker
// count: a figure run on three local workers must reproduce the default
// run's table exactly.
func TestSpecMatchesFigureFunction(t *testing.T) {
	spec, err := NewSpec("13", quick())
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(spec, runner.Local{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := run("13")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3-worker table differs from the default run:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpecShardMergeParity runs one figure as a 2-way shard split plus
// merge and requires the reduced table to be bit-identical to the
// single-process run — the multi-machine execution contract.
func TestSpecShardMergeParity(t *testing.T) {
	spec, err := NewSpec("12", quick())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*trace.Partial
	for i := 1; i <= 2; i++ {
		cells, err := runner.ShardCells(spec.Cells(), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := runner.Local{Cells: cells}.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, g.Partial(i, 2))
	}
	merged, err := trace.MergePartials(parts...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := runner.FromPartial(spec, merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Reduce(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard+merge table differs from local run")
	}
}

func TestRunSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for x := 0; x < 20; x++ {
		for r := 0; r < 10; r++ {
			s := runSeed(1, x, r)
			if seen[s] {
				t.Fatalf("seed collision at x=%d r=%d", x, r)
			}
			seen[s] = true
		}
	}
}

func TestPickHelpers(t *testing.T) {
	full := Options{}
	quickO := Options{Quick: true}
	if pick(full, 10, 2) != 10 || pick(quickO, 10, 2) != 2 {
		t.Fatal("pick wrong")
	}
	if got := pickSizes(quickO, []int{1}, []int{2, 3}); len(got) != 2 {
		t.Fatal("pickSizes wrong")
	}
	if full.seed() != 1 || (Options{Seed: 5}).seed() != 5 {
		t.Fatal("seed default wrong")
	}
}

func TestScenarioKindString(t *testing.T) {
	if commuterDynamic.String() != "commuter-dynamic" ||
		commuterStatic.String() != "commuter-static" ||
		timeZones.String() != "time-zones" {
		t.Fatal("scenario names wrong")
	}
	if scenarioKind(9).String() == "" {
		t.Fatal("unknown scenario must render")
	}
}

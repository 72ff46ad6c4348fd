package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// TestBuildScenarioAllKinds drives every workload family through the
// shared builder, including the composable scenarios.
func TestBuildScenarioAllKinds(t *testing.T) {
	env, err := erEnv(40, cost.Linear{}, cost.DefaultParams(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allScenarios() {
		seq, err := buildScenario(kind, env.Metric, 6, 5, 30, 0, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if seq.Len() != 30 {
			t.Fatalf("%v: %d rounds, want 30", kind, seq.Len())
		}
		if seq.TotalRequests() == 0 {
			t.Fatalf("%v: empty workload", kind)
		}
	}
	if _, err := buildScenario(scenarioKind(99), env.Metric, 6, 5, 30, 0, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestBuildScenarioDeterministic: the same (seed, x, run) derivation must
// yield byte-identical sequences, the property all sweeps rely on.
func TestBuildScenarioDeterministic(t *testing.T) {
	env, err := erEnv(40, cost.Linear{}, cost.DefaultParams(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allScenarios() {
		s := runSeed(7, 2, 3)
		a, err := buildScenario(kind, env.Metric, 6, 5, 40, 0, rand.New(rand.NewSource(s+1)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildScenario(kind, env.Metric, 6, 5, 40, 0, rand.New(rand.NewSource(s+1)))
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != b.Name() {
			t.Fatalf("%v: names differ", kind)
		}
		for r := 0; r < a.Len(); r++ {
			if a.Demand(r).String() != b.Demand(r).String() {
				t.Fatalf("%v round %d: %v vs %v", kind, r, a.Demand(r), b.Demand(r))
			}
		}
	}
}

// TestScenarioFiguresQuick is the CI smoke run of the new scenario
// experiments: one flash-crowd sweep and one diurnal multi-region sweep in
// quick mode, plus the cross-scenario comparison.
func TestScenarioFiguresQuick(t *testing.T) {
	tab, err := run("scenario-flash-crowd")
	checkTable(t, tab, err, 5)
	tab, err = run("scenario-diurnal")
	checkTable(t, tab, err, 5)
	tab, err = run("compare-scenarios")
	checkTable(t, tab, err, 5)
	if len(tab.X) != len(allScenarios()) {
		t.Fatalf("CompareScenarios covers %d scenarios, want %d", len(tab.X), len(allScenarios()))
	}
}

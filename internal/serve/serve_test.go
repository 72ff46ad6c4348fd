package serve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph/gen"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testFactory is a deterministic stream factory over a small ER network
// with ONTH — every call rebuilds the identical environment and algorithm,
// exactly the contract serve.Config.NewStream demands.
func testFactory(t testing.TB) func() (*sim.Stream, error) {
	t.Helper()
	return testFactoryAlg(t, func() sim.Algorithm { return online.NewONTH() })
}

// testFactoryAlg is testFactory with a pluggable algorithm constructor, so
// chaos tests can swap in deterministic misbehaving strategies.
func testFactoryAlg(t testing.TB, mkAlg func() sim.Algorithm) func() (*sim.Stream, error) {
	t.Helper()
	return testFactoryK(t, 0, mkAlg)
}

// testFactoryK is testFactoryAlg under server bound k (0 = unbounded).
func testFactoryK(t testing.TB, k int, mkAlg func() sim.Algorithm) func() (*sim.Stream, error) {
	t.Helper()
	return func() (*sim.Stream, error) {
		rng := rand.New(rand.NewSource(5))
		g, err := gen.ErdosRenyi(24, 0.15, gen.DefaultOptions(), rng)
		if err != nil {
			return nil, err
		}
		env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
			cost.Params{Beta: 40, Create: 400, RunActive: 2.5, RunInactive: 0.5},
			core.Params{QueueCap: 3, Expiry: 20, MaxServers: k})
		if err != nil {
			return nil, err
		}
		return sim.NewStream(env, mkAlg(), "stream")
	}
}

// testSequence is the matching demand source for parity tests: the batch
// sequence whose rounds the streaming tests feed as arrivals.
func testSequence(t testing.TB, rounds int) (*sim.Env, *workload.Sequence) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ErdosRenyi(24, 0.15, gen.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	env, err := sim.NewEnv(g, cost.Linear{}, cost.AssignMinCost,
		cost.Params{Beta: 40, Create: 400, RunActive: 2.5, RunInactive: 0.5},
		core.Params{QueueCap: 3, Expiry: 20})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: 6, Lambda: 4}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return env, seq
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"critical", Critical, true},
		{"standard", Standard, true},
		{"", Standard, true},
		{" Batch ", Batch, true},
		{"CRITICAL", Critical, true},
		{"gold", Standard, false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseClass(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseClass(%q) accepted", c.in)
		}
	}
	for _, c := range Classes() {
		back, err := ParseClass(c.String())
		if err != nil || back != c {
			t.Fatalf("class %v does not round-trip its wire name", c)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	if err := (Request{Node: 3, Count: 1}).Validate(5); err != nil {
		t.Fatal(err)
	}
	if err := (Request{Node: 5, Count: 1}).Validate(5); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := (Request{Node: -1, Count: 1}).Validate(5); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := (Request{Node: 0, Count: 0}).Validate(5); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want Fault
		ok   bool
	}{
		{"", Fault{}, true},
		{"none", Fault{}, true},
		{"slow", Fault{Kind: FaultSlow, Delay: 50e6, Factor: 8}, true},
		{"slow:3:10ms", Fault{Kind: FaultSlow, After: 3, Delay: 10e6, Factor: 8}, true},
		{"flood:2:4", Fault{Kind: FaultFlood, After: 2, Delay: 50e6, Factor: 4}, true},
		{"ckptfail:1", Fault{Kind: FaultCkptFail, After: 1, Delay: 50e6, Factor: 8}, true},
		{"kill:7", Fault{Kind: FaultKill, After: 7, Delay: 50e6, Factor: 8}, true},
		{"kill:7:9", Fault{}, false},
		{"flood:0:1", Fault{}, false},
		{"slow:-1", Fault{}, false},
		{"explode", Fault{}, false},
		{"slow:1:2:3", Fault{}, false},
	}
	for _, c := range cases {
		got, err := ParseFault(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseFault(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseFault(%q) accepted as %+v", c.in, got)
		}
	}
	f := Fault{Kind: FaultKill, After: 3}
	if f.Active(2) || !f.Active(3) {
		t.Fatal("Active threshold off by one")
	}
	if (Fault{}).Active(100) {
		t.Fatal("no-fault reported active")
	}
}

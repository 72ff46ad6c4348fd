package analysis

import "strings"

// DeterministicPackages lists the module packages whose results are
// contractually seed-derived: everything the parity tests pin
// bit-identical. detrand checks these packages completely, test files
// included (the parity tests ARE the contract, so a wall-clock read in
// one is as much a bug as in the kernel it pins).
//
// The wall-clock-by-design layers — the runner pool (deadlines,
// heartbeats, backoff jitter), the serving front (admission timestamps,
// latency percentiles) and the CLIs (progress logs) — are still
// checked in their non-test files, where every wall-clock read must
// carry a //repcheck:allow-wallclock justification; their test files
// are exempt (tests of wall-clock machinery are wall-clock by nature).
var DeterministicPackages = map[string]bool{
	"repro/internal/core":              true,
	"repro/internal/cost":              true,
	"repro/internal/graph":             true,
	"repro/internal/graph/gen":         true,
	"repro/internal/graph/cluster":     true,
	"repro/internal/offline":           true,
	"repro/internal/online":            true,
	"repro/internal/sim":               true,
	"repro/internal/stats":             true,
	"repro/internal/topo":              true,
	"repro/internal/trace":             true,
	"repro/internal/workload":          true,
	"repro/internal/workload/scenario": true,
	"repro/internal/experiments":       true,
}

// OutputPathPackages lists the packages whose writes feed a
// byte-parity contract: figure tables and partials (trace) and the
// served ledger/metrics JSON (serve). floatfmt applies here.
var OutputPathPackages = map[string]bool{
	"repro/internal/trace": true,
	"repro/internal/serve": true,
}

// InScope reports whether a diagnostic from the named analyzer applies
// to filename inside pkgPath (the base import path, bracket-free).
// rowborrow and maprange are global: the read-only row contract and
// map-iteration-order independence bind every layer, tests included.
func InScope(analyzer, pkgPath, filename string) bool {
	isTest := strings.HasSuffix(filename, "_test.go")
	switch analyzer {
	case "detrand":
		if DeterministicPackages[pkgPath] {
			return true
		}
		return !isTest
	case "floatfmt":
		return OutputPathPackages[pkgPath] && !isTest
	default:
		return true
	}
}

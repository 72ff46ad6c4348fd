// Command repcheck is the repo's contract checker: a multichecker-style
// driver over the internal/analysis suite. It machine-enforces the
// invariants every parity guarantee rests on:
//
//	rowborrow  graph.Metric rows are read-only: no write through Row or Pin
//	detrand    deterministic packages take no wall-clock or ambient RNG
//	maprange   map iteration order must not reach outputs or float sums
//	floatfmt   floats on output paths use full-precision encoding
//
// Usage:
//
//	go run ./cmd/repcheck [-only a,b] [packages...]   (default ./...)
//
// Exit status is 1 if any diagnostic is reported. Suppressions are
// per-line comments of the form //repcheck:allow-<directive> <reason>;
// see ANALYSIS.md for the contract behind each analyzer.
//
// The stock extended vet passes that usually ride along in a
// multichecker (nilness, unusedwrite, SSA-based checks) come from
// golang.org/x/tools, which this repo deliberately does not vendor (the
// build is offline); scripts/lint.sh runs the full `go vet` suite —
// which includes copylocks over generic instantiations — alongside
// repcheck, and gates the x/tools-only passes on their availability.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/floatfmt"
	"repro/internal/analysis/load"
	"repro/internal/analysis/maprange"
	"repro/internal/analysis/rowborrow"
)

var all = []*analysis.Analyzer{
	rowborrow.Analyzer,
	detrand.Analyzer,
	maprange.Analyzer,
	floatfmt.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repcheck [-only a,b] [packages...]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repcheck:", err)
		os.Exit(2)
	}

	res, err := load.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repcheck:", err)
		os.Exit(2)
	}

	exit := 0
	for _, pkg := range res.Packages {
		for _, a := range selected {
			diags, err := analysis.Run(a, res.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repcheck: %s: %s: %v\n", a.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
			for _, d := range diags {
				if !analysis.InScope(a.Name, pkg.BasePath, d.Pos.Filename) {
					continue
				}
				fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, a.Name)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

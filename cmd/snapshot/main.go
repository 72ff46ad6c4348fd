// Command snapshot prints every figure and table of the evaluation with
// full float precision, for byte-level parity checks across optimisation
// work: run it before and after a change and diff the output.
//
// Usage: snapshot [seed [metric]] — the optional metric spec (dense,
// sparse[:rows], landmark[:k]) selects the distance backend; exact
// backends must produce byte-identical output, which CI pins for
// dense vs sparse.
package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

func main() {
	seed := int64(1)
	if len(os.Args) > 1 {
		s, err := strconv.ParseInt(os.Args[1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		seed = s
	}
	metric := ""
	if len(os.Args) > 2 {
		metric = os.Args[2]
	}
	o := experiments.Options{Quick: true, Seed: seed, Metric: metric}
	// Each figure prints under its historical label, so snapshots of
	// different revisions diff line for line.
	figs := []struct{ label, spec string }{
		{"Figure1", "1"}, {"Figure2", "2"}, {"Figure3", "3"}, {"Figure4", "4"},
		{"Figure5", "5"}, {"Figure6", "6"}, {"Figure7", "7"}, {"Figure8", "8"},
		{"Figure9", "9"}, {"Figure10", "10"}, {"Figure11", "11"},
		{"Figure12", "12"}, {"Figure13", "13"}, {"Figure14", "14"},
		{"Figure15", "15"}, {"Figure16", "16"}, {"Figure17", "17"},
		{"Figure18", "18"}, {"Figure19", "19"},
		{"AblationQueue", "ablation-queue"},
		{"AblationExpiry", "ablation-expiry"},
		{"AblationY", "ablation-y"},
		{"AblationTheta", "ablation-theta"},
		{"AblationLoad", "ablation-load"},
		{"AblationAssign", "ablation-assign"},
		{"CompareOnlineVariants", "variants"},
		// The composable scenario sweeps are appended after the paper
		// figures so optimisation diffs against older snapshots stay
		// aligned on the shared prefix.
		{"CompareScenarios", "compare-scenarios"},
		{"ScenarioFlashCrowd", "scenario-flash-crowd"},
		{"ScenarioDiurnal", "scenario-diurnal"},
	}
	for _, f := range figs {
		tab, err := run(f.spec, o)
		if err != nil {
			fmt.Printf("%s: ERROR %v\n", f.label, err)
			continue
		}
		fmt.Printf("== %s: %s\n", f.label, tab.Title)
		for _, x := range tab.X {
			fmt.Printf("x %.17g\n", x)
		}
		for _, s := range tab.Series {
			fmt.Printf("series %s:", s.Label)
			for _, v := range s.Values {
				fmt.Printf(" %.17g", v)
			}
			fmt.Println()
		}
	}
	// The closing table prints its raw grid cell in the struct form older
	// snapshots used, so the line diffs byte for byte.
	spec, err := experiments.NewSpec("rocketfuel", o)
	var g *runner.Grid
	if err == nil {
		g, err = runner.Collect(spec, nil)
	}
	if err != nil {
		fmt.Printf("TableRocketfuel: ERROR %v\n", err)
		return
	}
	v := g.Cell(0, 0, 0)
	fmt.Printf("== TableRocketfuel\n{Offstat:%v Onth:%v Onbr:%v}\n", v[0], v[1], v[2])
}

// run builds one experiment's spec and executes it on the in-process
// runner.
func run(name string, o experiments.Options) (*trace.Table, error) {
	spec, err := experiments.NewSpec(name, o)
	if err != nil {
		return nil, err
	}
	return runner.Run(spec, nil)
}

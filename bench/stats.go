package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the closest ranks of xs, for
// latency samples. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's acceptance checks use, so spreads printed here match theirs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), median(s), cut(3)
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads every untraced, valid result in the --out files of dir,
// grouped by workload, in file-name order so runs pair up by position.
func loadRuns(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rs {
			if !r.Trace && r.Valid {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced results in %s", dir)
	}
	return out, nil
}

// compareRuns applies the same-machine A/B rule to every workload ×
// end-to-end metric: a gain needs the change to win at least 9 of 10 pairs
// and the medians to differ by more than the parent's interquartile
// range; a regression is a median worse than the parent's by more than the
// metric's bound; a metric whose parent spread exceeds its bound is
// unresolved unless every change run beats every parent run.
func compareRuns(specPath, parentDir, changeDir string, w io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange/parent\twins\tverdict")
	for _, wl := range workloads {
		ps, cs := parent[wl.name], change[wl.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, cv := metricValues(ps, m.Name), metricValues(cs, m.Name)
			lower := m.Better == "lower"
			v := judge(pv, cv, lower, m.Bound)
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%.3fx of %.4g\t%d/%d\t%s\n",
				wl.name, m.Name, pm, pq1, pq3, m.Unit, cm, cq1, cq3, m.Unit,
				cm/pm, pm, v.wins, v.pairs, v.verdict)
		}
	}
	return tw.Flush()
}

func metricValues(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type verdict struct {
	wins, pairs int
	verdict     string
}

// judge classifies one workload × metric from the parent's and the
// change's runs; pairs are formed by position.
func judge(parent, change []float64, lower bool, bound float64) verdict {
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	v := verdict{pairs: min(len(parent), len(change))}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	cm := median(change)
	worse := (cm - pm) / pm
	if !lower {
		worse = -worse
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		v.verdict = "gain"
	case worse > bound:
		v.verdict = "regressed"
	case (pq3-pq1)/pm > bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "no regression"
	}
	return v
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json vodperf reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// absFloor is, per metric, the smallest absolute worsening that counts
// as a regression: a set-up of a few milliseconds moves by more than
// its relative bound with the machine's load alone.
var absFloor = map[string]float64{"setup_s": 0.05}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadRuns reads a set of runs: one result file, or every .json result
// file in a directory.
func loadRuns(path string) ([]result, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no result files", path)
		}
	}
	runs := make([]result, len(files))
	for i, f := range files {
		if err := readJSON(f, &runs[i]); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// workloadRuns gathers one workload's results from a set of runs.
func workloadRuns(runs []result, name string) []wlResult {
	var out []wlResult
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Name == name {
				out = append(out, w)
			}
		}
	}
	return out
}

// compare prints, for every end-to-end metric of every workload in both
// sets of runs, each side's median and quartiles over its runs and a
// verdict under the metric's bound. It returns 1 if anything regressed.
func compare(benchPath, pathA, pathB string, w io.Writer) int {
	var def benchmarkDef
	if err := readJSON(benchPath, &def); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 2
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s (%d runs)\nB: %s (%d runs)\n", pathA, len(a), pathB, len(b))
	for _, r := range append(slices.Clone(a[1:]), b...) {
		if r.Host != a[0].Host {
			fmt.Fprintf(w, "warning: the hosts differ (%+v vs %+v)\n", a[0].Host, r.Host)
			break
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	regressed := 0
	var names []string
	for _, r := range a {
		for _, wl := range r.Workloads {
			if !slices.Contains(names, wl.Name) {
				names = append(names, wl.Name)
			}
		}
	}
	for _, name := range names {
		wa, wb := workloadRuns(a, name), workloadRuns(b, name)
		if len(wb) == 0 {
			fmt.Fprintf(w, "%-12s missing from B\n", name)
			continue
		}
		for _, m := range def.EndToEnd {
			xa, xb := metricValues(wa, m.Name), metricValues(wb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing\n", name, m.Name)
				continue
			}
			v, change := verdict(xa, xb, m, absFloor[m.Name])
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, quartileText(xa), quartileText(xb), 100*change, 100*m.Bound, v)
		}
		fa, fb := failedFrac(wa), failedFrac(wb)
		v := "same"
		if fb > fa {
			v = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-12s %-16s %-34.4g %-34.4g %8s %6s  %s\n", name, "ops_failed_frac", fa, fb, "", "0", v)
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// metricValues is one metric's value in each run that has it.
func metricValues(runs []wlResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// failedFrac is the share of a set of runs' operations that failed.
func failedFrac(runs []wlResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// verdict judges B's runs against A's: "regressed" or "improved"
// when the medians differ by more than the bound (and, for a
// regression, by more than floor in absolute terms), else "same". When
// either side's interquartile range is wider than the change that
// counts (the bound times its median, and at least floor), a change
// counts only if every value of one side beats every value of the
// other, and anything else is "unresolved". change is B's median
// relative to A's.
func verdict(a, b []float64, m metricDef, floor float64) (v string, change float64) {
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	change = (mb - ma) / ma
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	wide := a3-a1 > math.Max(m.Bound*ma, floor) || b3-b1 > math.Max(m.Bound*mb, floor)
	switch {
	case worse > m.Bound && math.Abs(mb-ma) > floor && (!wide || beats(a, b, m.Better)):
		return "regressed", change
	case worse < -m.Bound && (!wide || beats(b, a, m.Better)):
		return "improved", change
	case wide:
		return "unresolved", change
	}
	return "same", change
}

// beats reports whether every value of x is better than every value of y.
func beats(x, y []float64, better string) bool {
	if better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

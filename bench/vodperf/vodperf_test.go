package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for vodperf's child processes.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := reportable(tc.n, tc.p); got != tc.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	got := map[string]measurement{}
	percentiles("x", samples, true, got)
	if _, ok := got["x_p95_ms"]; ok {
		t.Error("p95 of 100 samples reported with only 5 beyond it")
	}
	p90, ok := got["x_p90_ms"]
	if !ok || p90.Beyond != 10 || p90.Samples != 100 {
		t.Errorf("p90 of 100 samples = %+v, want it reported with 10 beyond", p90)
	}
	if p50 := got["x_p50_ms"]; p50.Value != 50.5 {
		t.Errorf("p50 = %v, want 50.5", p50.Value)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4):
// quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
// quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 102, 99, 101, 100}, "same"},
		{[]float64{120, 121, 119, 120, 120}, "regressed"},
		{[]float64{80, 81, 79, 80, 80}, "improved"},
		{[]float64{60, 100, 140, 100, 100}, "unresolved"},
	} {
		if got, _ := verdict(steady, tc.b, lower, 0); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	// Set-up times of a few ms: neither their doubling nor a spread of
	// half the median reaches a 50 ms floor.
	for _, b := range [][]float64{{0.006, 0.006, 0.006}, {0.002, 0.003, 0.004, 0.003}} {
		if got, _ := verdict([]float64{0.003, 0.003, 0.003}, b, lower, 0.05); got != "same" {
			t.Errorf("set-up %v against 3 ms under a 50 ms floor = %s, want same", b, got)
		}
	}
}

// TestSmoke runs every workload at its smoke-test size, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names,
// with its unit, and that every output check passes.
func TestSmoke(t *testing.T) {
	var def benchmarkDef
	bench, err := filepath.Abs("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := readJSON(bench, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, vodperf runs %v", names, workloadNames)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	smokeSize = true
	t.Cleanup(func() {
		os.Chdir(wd)
		smokeSize = false
	})

	check := func(args []string, want []metricDef) string {
		t.Helper()
		var out bytes.Buffer
		if code := run(append(args, "-seconds", "1"), &out); code != 0 {
			t.Fatalf("vodperf %v: exit %d\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var s struct {
			Correct   *bool                `json:"correct"`
			Attempted *int                 `json:"attempted"`
			Failed    *int                 `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("vodperf %v: last line: %v", args, err)
		}
		if s.Correct == nil || !*s.Correct || s.Attempted == nil || *s.Attempted < 1 || s.Failed == nil || *s.Failed != 0 {
			t.Fatalf("vodperf %v: summary %s", args, lines[len(lines)-1])
		}
		if len(s.Metrics) != len(want) {
			t.Errorf("vodperf %v: %d metrics, want %d", args, len(s.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := s.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("vodperf %v: metric %s missing", args, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("vodperf %v: metric %s in %q, want %q", args, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("vodperf %v: metric %s = %v", args, m.Name, got.Value)
			}
		}
		return out.String()
	}
	for _, w := range workloadNames {
		check([]string{"-workload", w, "-seed", "3", "-json", "set/" + w + ".json"}, def.EndToEnd)
	}
	out := check([]string{"-workload", "churn_blind", "-seed", "3", "-trace", "1"}, def.PerLayer)
	if !strings.Contains(out, "where the traced reps' time goes") || !strings.Contains(out, "cluster.RunChurn") {
		t.Errorf("traced run printed no span summary:\n%s", out)
	}

	// A set of runs against itself, and against one of its files.
	for _, b := range []string{"set", "set/plan.json"} {
		var cmp bytes.Buffer
		if code := compare(bench, "set", b, &cmp); code != 0 {
			t.Errorf("compare set %s: exit %d\n%s", b, code, cmp.String())
		}
		for _, m := range def.EndToEnd {
			if !strings.Contains(cmp.String(), "plan         "+m.Name) {
				t.Errorf("compare set %s printed no plan verdict for %s:\n%s", b, m.Name, cmp.String())
			}
		}
	}
}

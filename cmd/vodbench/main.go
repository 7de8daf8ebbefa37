// Command vodbench regenerates the paper's tables and figures.
//
// Usage:
//
//	vodbench -exp all                    # every experiment
//	vodbench -exp fig7a                  # one panel (fig7a..fig7d, fig8, fig9, ex1, ex2, verify, sens, piggyback, e2e, faults, cluster, churn, gray, scale)
//	vodbench -exp fig7d -quick           # smaller simulation horizons
//	vodbench -exp all -parallel 8        # cap sweep workers (0 = all CPUs, 1 = sequential)
//	vodbench -exp all -json bench.json   # append per-experiment wall-clock to a JSON artifact
//
// Output is the textual form of each figure: the same rows/series the
// paper plots, with model and simulation side by side where applicable.
// The figures are deterministic in -parallel: any worker count prints
// byte-identical output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/experiments"
	"vodalloc/internal/sizing"
)

// expTiming is one experiment's wall-clock measurement.
type expTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// benchRun is one vodbench invocation's record in the -json artifact.
type benchRun struct {
	Label        string      `json:"label,omitempty"`
	Quick        bool        `json:"quick"`
	Parallel     int         `json:"parallel"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	Seed         int64       `json:"seed"`
	Experiments  []expTiming `json:"experiments"`
	TotalSeconds float64     `json:"total_seconds"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig7a|fig7b|fig7c|fig7d|fig8|fig9|ex1|ex2|verify|sens|piggyback|e2e|faults|cluster|churn|gray|scale|all")
	quick := flag.Bool("quick", false, "shrink simulation horizons for a fast pass")
	seed := flag.Int64("seed", 1, "simulation seed")
	par := flag.Int("parallel", 0, "worker cap for experiment sweeps (0 = GOMAXPROCS, 1 = sequential)")
	jsonPath := flag.String("json", "", "append per-experiment wall-clock timings to this JSON file")
	label := flag.String("label", "", "label recorded with the -json timings")
	resume := flag.String("resume", "", "checkpoint directory: journal completed sweep items there and resume a killed run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	baseline := flag.String("baseline", "", "compare this run's total against the latest entry of the JSON artifact at this path (warn on >15% slowdown)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *resume != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			fatal(err)
		}
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Workers: *par, ResumeDir: *resume}
	// The sizing sweeps behind fig8/fig9/ex1/ex2 share the process-wide
	// evaluator; pin its parallelism to the same budget.
	sizing.Default.Workers = *par
	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == name || s == "all" {
				return true
			}
		}
		return false
	}

	run := benchRun{
		Label:      *label,
		Quick:      *quick,
		Parallel:   *par,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
	}
	start := time.Now()
	for _, e := range experiments.All {
		if !want(e.Name) {
			continue
		}
		t0 := time.Now()
		if err := e.Run(context.Background(), opts, os.Stdout); err != nil {
			fatal(err)
		}
		run.Experiments = append(run.Experiments, expTiming{
			Name:    e.Name,
			Seconds: time.Since(t0).Seconds(),
		})
	}
	run.TotalSeconds = time.Since(start).Seconds()
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // flush recently freed objects so the profile shows live + cumulative allocs accurately
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if len(run.Experiments) == 0 {
		fmt.Fprintf(os.Stderr, "vodbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := appendRun(*jsonPath, run); err != nil {
			fatal(err)
		}
	}
	if *baseline != "" {
		if err := compareBaseline(*baseline, run); err != nil {
			fatal(err)
		}
	}
}

// compareBaseline diffs this run's total wall clock against the latest
// entry of the bench artifact at path (the BENCH_sweeps.json protocol)
// and prints a regression warning when the run is more than 15% slower.
// Only a missing or malformed artifact is an error: a slowdown warns on
// stderr — machines differ — leaving the judgment call to CI logs.
func compareBaseline(path string, run benchRun) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var runs []benchRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return fmt.Errorf("%s is not a bench-run array: %v", path, err)
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no baseline runs", path)
	}
	base := runs[len(runs)-1]
	ratio := run.TotalSeconds / base.TotalSeconds
	verdict := "ok"
	if ratio > 1.15 {
		verdict = "WARNING: >15% slower than baseline"
	}
	fmt.Fprintf(os.Stderr, "vodbench: total %.2fs vs baseline %.2fs (%q): %.0f%% — %s\n",
		run.TotalSeconds, base.TotalSeconds, base.Label, 100*ratio, verdict)
	return nil
}

// appendRun appends the run to the JSON array at path, creating the file
// on first use so successive invocations (e.g. before/after a change)
// accumulate into one artifact.
func appendRun(path string, run benchRun) error {
	var runs []benchRun
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &runs); err != nil {
			return fmt.Errorf("existing %s is not a bench-run array: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	runs = append(runs, run)
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	// Write-temp-then-rename: a crash mid-write must never leave the
	// accumulated artifact half-serialized.
	return checkpoint.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vodbench:", err)
	os.Exit(1)
}

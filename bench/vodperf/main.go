// Command vodperf is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload, or all of them,
// for a seed: it repeats the workload in fresh child processes for
// about the given number of seconds, checks every output, prints each
// metric by name with its unit, and writes a JSON result. The last line
// of standard output is a one-line JSON summary: whether every check
// passed, the operation counts, and the end-to-end metrics (with -trace
// 1, the per-layer metrics instead).
//
// Usage, from the repository root:
//
//	vodperf -workload plan -seed 1 -seconds 15
//	vodperf -workload all -seed 1 -json bench/results/seed1-a.json
//	vodperf -workload serve -seed 1 -trace 1
//	vodperf -compare bench/results/seed1-a bench/results/seed1-b
//
// bench/run.sh builds vodperf from the checkout and runs it with its
// arguments. bench/README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// outDir holds vodperf's result and span files unless -json says
// otherwise.
const outDir = ".bench_build/vodperf"

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vodperf", flag.ContinueOnError)
	wl := fs.String("workload", "all", "workload to run: all or one of "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Int("seconds", 15, "measure each workload for about this many seconds")
	trace := fs.Int("trace", 0, "1: also run traced reps and the layer probes, and report the per-layer metrics")
	jsonPath := fs.String("json", "", "write the result here (default "+outDir+"/<workload>-seed<seed>.json)")
	cmp := fs.Bool("compare", false, "compare two sets of runs under the bounds of ./BENCHMARK.json: vodperf -compare A B, each a result file or a directory of them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vodperf: -compare takes two result files or directories")
			return 2
		}
		return compare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	names := workloadNames
	if *wl != "all" {
		if !slices.Contains(workloadNames, *wl) {
			fmt.Fprintf(os.Stderr, "vodperf: unknown workload %q\n", *wl)
			return 2
		}
		names = []string{*wl}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vodperf: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	base := fmt.Sprintf("%s/%s-seed%d", outDir, *wl, *seed)
	if *trace == 1 {
		base += "-trace"
	}
	if *jsonPath == "" {
		*jsonPath = base + ".json"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(*jsonPath), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res := result{Host: thisHost(), Seed: *seed, Seconds: *seconds, Trace: o.trace}
	for _, name := range names {
		r := measure(name, o)
		printResult(stdout, r)
		res.Workloads = append(res.Workloads, r)
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result: %s\n", *jsonPath)
	s := summaryLine(res)
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !s.Correct {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one-line result: with one workload its metrics go by
// their own names, with several as <workload>.<metric>.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func summaryLine(res result) summary {
	s := summary{Metrics: map[string]valueUnit{}}
	for _, w := range res.Workloads {
		s.Attempted += w.Attempted
		s.Failed += w.Failed
		m := w.Metrics
		if res.Trace {
			m = w.Layers
		}
		for k, v := range m {
			if len(res.Workloads) > 1 {
				k = w.Name + "." + k
			}
			s.Metrics[k] = valueUnit{v.Value, v.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

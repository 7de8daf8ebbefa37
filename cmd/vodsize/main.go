// Command vodsize runs the paper's §5 system-sizing workflow on the
// Example 1 catalog or a custom movie list: feasible sets, the
// minimum-buffer plan, and cost curves.
//
// Usage:
//
//	vodsize -plan                       # Example 1 minimum-buffer plan
//	vodsize -plan -maxstreams 500       # with a stream budget
//	vodsize -feasible movie2 -step 5    # a movie's (B, n) frontier
//	vodsize -curve -phi 11              # a Figure 9 cost curve
//	vodsize -movie custom:100:0.2:0.5:exp:4 -plan
//	vodsize -config catalog.json -plan
//	vodsize -plan -parallel 8           # cap sweep workers (0 = all CPUs)
//
// Custom movies use name:length:wait:target:durfamily:params…, with the
// §4 mixed VCR behaviour (0.2/0.2/0.6).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vodalloc/internal/dist"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

func main() {
	plan := flag.Bool("plan", false, "compute the minimum-buffer plan")
	feasible := flag.String("feasible", "", "print the feasible set of the named movie")
	step := flag.Float64("step", 5, "buffer step for -feasible, minutes")
	curve := flag.Bool("curve", false, "print the cost curve")
	phi := flag.Float64("phi", 10.714285714285714, "buffer/stream price ratio for -curve (Example 2 ≈ 10.71)")
	maxStreams := flag.Int("maxstreams", 0, "stream budget for -plan (0 = unbounded)")
	maxBuffer := flag.Float64("maxbuffer", 0, "buffer budget for -plan, minutes (0 = unbounded)")
	configPath := flag.String("config", "", "JSON catalog file (see workload.CatalogSpec); overrides -movie")
	par := flag.Int("parallel", 0, "worker cap for sizing sweeps (0 = GOMAXPROCS, 1 = sequential)")
	resume := flag.String("resume", "", "checkpoint directory: load the model-evaluation cache from there and save it back on exit")
	var movieSpecs multiFlag
	flag.Var(&movieSpecs, "movie", "custom movie spec name:length:wait:target:dist…; repeatable (default: Example 1 catalog)")
	flag.Parse()

	// A per-invocation evaluator: sweeps share its memo cache and worker
	// budget without touching the process-wide sizing.Default.
	eval := &sizing.Evaluator{Workers: *par}
	var cachePath string
	if *resume != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			fatal(err)
		}
		cachePath = filepath.Join(*resume, "evalcache.ckpt")
		switch n, err := eval.LoadCache(cachePath); {
		case err == nil:
			fmt.Fprintf(os.Stderr, "vodsize: loaded %d cached model evaluations from %s\n", n, cachePath)
		case errors.Is(err, os.ErrNotExist):
			// Cold start: nothing to load yet.
		default:
			fmt.Fprintf(os.Stderr, "vodsize: ignoring unusable cache: %v\n", err)
		}
		// Persist incrementally too, so a killed sweep still leaves most
		// of its evaluations behind for the next run.
		eval.AutoSave(cachePath, 64)
		defer func() {
			if n, err := eval.SaveCache(cachePath); err != nil {
				fmt.Fprintf(os.Stderr, "vodsize: save cache: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "vodsize: saved %d model evaluations to %s\n", n, cachePath)
			}
		}()
	}

	movies := workload.Example1Movies()
	if *configPath != "" {
		var err error
		movies, err = workload.LoadCatalog(*configPath)
		if err != nil {
			fatal(err)
		}
	} else if len(movieSpecs) > 0 {
		movies = movies[:0]
		for _, spec := range movieSpecs {
			m, err := parseMovie(spec)
			if err != nil {
				fatal(err)
			}
			movies = append(movies, m)
		}
	}

	did := false
	if *feasible != "" {
		did = true
		found := false
		for _, m := range movies {
			if m.Name != *feasible {
				continue
			}
			found = true
			pts, err := eval.FeasibleByBufferStep(m, sizing.DefaultRates, *step)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s: l=%g w=%g P*=%g\n", m.Name, m.Length, m.Wait, m.TargetHit)
			fmt.Printf("%10s %8s %10s %9s\n", "B(min)", "n", "P(hit)", "feasible")
			for _, p := range pts {
				mark := ""
				if p.Feasible {
					mark = "✓"
				}
				fmt.Printf("%10.1f %8d %10.4f %9s\n", p.B, p.N, p.Hit, mark)
			}
		}
		if !found {
			fatal(fmt.Errorf("no movie named %q in the catalog", *feasible))
		}
	}
	if *plan {
		did = true
		pure := sizing.PureBatchingStreams(movies)
		p, err := eval.MinBufferPlan(movies, sizing.DefaultRates, *maxStreams, *maxBuffer)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pure batching baseline: %d streams\n", pure)
		for _, a := range p.Allocs {
			fmt.Printf("%s: B*=%.1f min, n*=%d, P(hit)=%.4f, w=%g\n", a.Movie, a.B, a.N, a.Hit, a.Wait)
		}
		fmt.Printf("totals: ΣB=%.1f min, Σn=%d streams, saved=%d streams vs pure batching\n",
			p.TotalBuffer, p.TotalStreams, pure-p.TotalStreams)
	}
	if *curve {
		did = true
		pts, err := eval.CostCurve(movies, sizing.DefaultRates, *phi, 40)
		if err != nil {
			fatal(err)
		}
		min, err := sizing.MinCostPoint(pts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cost curve at φ=%.3f (cost in units of Cn); minimum %.1f at Σn=%d\n",
			*phi, min.RelativeCost, min.TotalStreams)
		fmt.Printf("%10s %12s %14s\n", "Σn", "ΣB(min)", "cost/Cn")
		for _, p := range pts {
			fmt.Printf("%10d %12.1f %14.1f\n", p.TotalStreams, p.TotalBuffer, p.RelativeCost)
		}
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// parseMovie reads name:length:wait:target:dist-spec….
func parseMovie(spec string) (workload.Movie, error) {
	parts := strings.SplitN(spec, ":", 5)
	if len(parts) != 5 {
		return workload.Movie{}, fmt.Errorf("movie spec %q: want name:length:wait:target:dist", spec)
	}
	length, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return workload.Movie{}, fmt.Errorf("movie %q length: %v", parts[0], err)
	}
	wait, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return workload.Movie{}, fmt.Errorf("movie %q wait: %v", parts[0], err)
	}
	target, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return workload.Movie{}, fmt.Errorf("movie %q target: %v", parts[0], err)
	}
	dur, err := dist.Parse(parts[4])
	if err != nil {
		return workload.Movie{}, err
	}
	m := workload.Movie{
		Name: parts[0], Length: length, Wait: wait, TargetHit: target,
		Profile:    workload.MixedProfile(dur, dist.MustExponential(15)),
		Popularity: 1,
	}
	return m, m.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vodsize:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// result is one invocation's record: the host, the settings, and each
// workload's numbers.
type result struct {
	Host      host       `json:"host"`
	Seed      int64      `json:"seed"`
	Seconds   int        `json:"seconds"`
	Trace     bool       `json:"trace"`
	Workloads []wlResult `json:"workloads"`
}

// wlResult is one workload's measurement.
type wlResult struct {
	Name       string   `json:"name"`
	Reps       int      `json:"reps"`
	TracedReps int      `json:"traced_reps,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics, from untraced reps.
	Metrics map[string]measurement `json:"metrics"`
	// Details are further workload-specific numbers, not gated.
	Details map[string]measurement `json:"details,omitempty"`
	// Layers are the per-layer metrics of a traced run; Spans is the
	// file holding its spans.
	Layers map[string]measurement `json:"layers,omitempty"`
	Spans  string                 `json:"spans,omitempty"`
}

func (w *wlResult) fail(msg string) {
	w.Failed++
	if len(w.Failures) < maxFailureNotes {
		w.Failures = append(w.Failures, msg)
	}
}

// absorb adds a child's operation counts and failure notes.
func (w *wlResult) absorb(r repReport) {
	w.Attempted += r.Attempted
	for i := 0; i < r.Failed; i++ {
		msg := "(further failures not recorded)"
		if i < len(r.Failures) {
			msg = r.Failures[i]
		}
		w.fail(msg)
	}
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
}

// smokeSize shrinks every workload to about a second per rep; only the
// smoke test sets it.
var smokeSize bool

// minReps is the fewest reps an untraced run makes, whatever the time
// budget. A traced run alternates untraced and traced reps and stops at
// the budget once it has one of each, so that with the probes after
// them it stays within about the budget too.
const minReps = 3

// setupsPerRep is how many set-up-only children an untraced run starts
// after each rep. Set-up takes milliseconds on most workloads, and a
// median over a few process starts moves with every burst of the host's
// load.
const setupsPerRep = 3

// repOutcome is one child's report plus what the parent measured of it.
type repOutcome struct {
	repReport
	wallS, setupS, cpuS, rssMB float64
}

// spawn runs one rep in a fresh child process and waits for it.
func spawn(spec childSpec) (repOutcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return repOutcome{}, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return repOutcome{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return repOutcome{}, fmt.Errorf("%s rep %d: %w", spec.Workload, spec.Rep, err)
	}
	out := repOutcome{wallS: time.Since(start).Seconds()}
	if err := json.Unmarshal(stdout.Bytes(), &out.repReport); err != nil {
		return repOutcome{}, fmt.Errorf("%s rep %d: report: %w", spec.Workload, spec.Rep, err)
	}
	out.setupS = out.wallS
	if out.FirstOpNS != 0 {
		out.setupS = float64(out.FirstOpNS-start.UnixNano()) / 1e9
	}
	ps := cmd.ProcessState
	out.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		out.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
	}
	return out, nil
}

// measure runs a workload's reps, one child at a time, until the time
// budget is spent (or the minimum rep count is reached), then
// aggregates them. A traced run alternates untraced and traced reps and
// finishes with the layer probes.
func measure(name string, o runOpts) wlResult {
	res := wlResult{Name: name}
	var plain, traced []repOutcome
	var walls, setups []float64
	if o.trace {
		res.Spans = fmt.Sprintf("%s/%s-seed%d.spans.jsonl", outDir, name, o.seed)
		if err := os.Remove(res.Spans); err != nil && !os.IsNotExist(err) {
			res.Attempted++
			res.fail(err.Error())
			return res
		}
	}
	budget := float64(o.seconds)
	start := time.Now()
	for rep := 0; ; rep++ {
		spec := childSpec{Workload: name, Seed: o.seed, Rep: rep, Small: smokeSize}
		tracedRep := o.trace && rep%2 == 1
		if tracedRep {
			spec.Spans = res.Spans
		}
		r, err := spawn(spec)
		if err != nil {
			res.Attempted++
			res.fail(err.Error())
			break
		}
		res.absorb(r.repReport)
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
			setups = append(setups, r.setupS)
		}
		walls = append(walls, r.wallS)
		for i := 0; i < setupsPerRep && !o.trace; i++ {
			spec.SetupOnly = true
			s, err := spawn(spec)
			if err != nil {
				res.Attempted++
				res.fail(err.Error())
				break
			}
			res.absorb(s.repReport)
			setups = append(setups, s.setupS)
		}
		done := len(plain) >= minReps
		if o.trace {
			done = len(plain) >= 1 && len(traced) >= 1
		}
		if done && time.Since(start).Seconds()+median(walls) > budget {
			break
		}
	}
	res.Reps, res.TracedReps = len(plain), len(traced)
	checkDigests(&res, append(slices.Clone(plain), traced...))
	res.Metrics, res.Details = summarize(plain, setups)
	if o.trace {
		res.Layers = traceLayers(&res, o, plain, traced)
	}
	return res
}

// checkDigests requires every rep of one seed to print the same output.
func checkDigests(res *wlResult, reps []repOutcome) {
	for i, r := range reps {
		if r.Digest == "" {
			continue
		}
		res.Attempted++
		if r.Digest != reps[0].Digest {
			res.fail(fmt.Sprintf("rep %d output differs from the first rep's", i))
		}
	}
}

// pooledAnswers is every answer latency of a set of reps.
func pooledAnswers(reps []repOutcome) []float64 {
	var answers []float64
	for _, r := range reps {
		answers = append(answers, r.Answers...)
	}
	return answers
}

// summarize computes the end-to-end metrics and the details from the
// untraced reps and the run's set-up samples: latency is the median of
// the answers pooled over reps, set-up time the median of the set-up
// samples, peak memory the median over reps.
func summarize(reps []repOutcome, setups []float64) (metrics, details map[string]measurement) {
	metrics, details = map[string]measurement{}, map[string]measurement{}
	if len(reps) == 0 {
		return metrics, details
	}
	var rss []float64
	classes := map[string][]float64{}
	perRep := map[string][]float64{}
	units := map[string]string{}
	for _, r := range reps {
		rss = append(rss, r.rssMB)
		for k, v := range r.Classes {
			classes[k] = append(classes[k], v...)
		}
		for k, m := range r.Details {
			perRep[k] = append(perRep[k], m.Value)
			units[k] = m.Unit
		}
	}
	answers := pooledAnswers(reps)
	metrics["latency_ms"] = measurement{Value: median(answers), Unit: "ms", Samples: len(answers)}
	metrics["setup_s"] = measurement{Value: median(setups), Unit: "s", Samples: len(setups)}
	metrics["max_rss_mb"] = measurement{Value: median(rss), Unit: "MB", Samples: len(rss)}
	percentiles("latency", answers, false, details)
	for k, v := range classes {
		percentiles(k, v, true, details)
	}
	for k, v := range perRep {
		details[k] = measurement{Value: median(v), Unit: units[k], Samples: len(v)}
	}
	return metrics, details
}

// traceLayers gathers a traced run's per-layer metrics: the probes, the
// process profile of the untraced reps, and the tracing overhead.
func traceLayers(res *wlResult, o runOpts, plain, traced []repOutcome) map[string]measurement {
	layers := map[string]measurement{}
	p, err := spawn(childSpec{Workload: "probes", Seed: o.seed, Small: smokeSize})
	if err != nil {
		res.Attempted++
		res.fail(err.Error())
	} else {
		res.absorb(p.repReport)
		for k, v := range p.Layers {
			layers[k] = v
		}
	}
	procs := float64(runtime.GOMAXPROCS(0))
	var util, alloc, gc []float64
	for _, r := range plain {
		util = append(util, r.cpuS/(r.wallS*procs))
		alloc = append(alloc, r.AllocMB)
		gc = append(gc, r.GCCPUFrac)
	}
	layers["proc.cpu_util"] = measurement{Value: median(util), Unit: "ratio", Samples: len(util)}
	layers["proc.alloc_mb"] = measurement{Value: median(alloc), Unit: "MB", Samples: len(alloc)}
	layers["proc.gc_cpu_frac"] = measurement{Value: median(gc), Unit: "ratio", Samples: len(gc)}
	if len(plain) > 0 && len(traced) > 0 {
		layers["trace_overhead_frac"] = measurement{
			Value: median(pooledAnswers(traced))/median(pooledAnswers(plain)) - 1, Unit: "ratio", Samples: len(traced),
		}
	}
	return layers
}

// printResult writes a workload's numbers for a reader.
func printResult(w io.Writer, r wlResult) {
	fmt.Fprintf(w, "== %s: %d reps", r.Name, r.Reps)
	if r.TracedReps > 0 {
		fmt.Fprintf(w, " + %d traced", r.TracedReps)
	}
	fmt.Fprintf(w, ", %d operations, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, group := range []struct {
		title string
		m     map[string]measurement
	}{{"end to end", r.Metrics}, {"details", r.Details}, {"per layer", r.Layers}} {
		if len(group.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", group.title)
		names := make([]string, 0, len(group.m))
		for k := range group.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group.m[k]
			fmt.Fprintf(w, "    %-36s %14.6g %-7s", k, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if m.Beyond > 0 {
				fmt.Fprintf(w, " beyond=%d", m.Beyond)
			}
			fmt.Fprintln(w)
		}
	}
	if r.Spans != "" {
		fmt.Fprintf(w, "  where the traced reps' time goes (%s):\n", r.Spans)
		if err := summarizeSpans(r.Spans, w); err != nil {
			fmt.Fprintf(w, "  spans: %v\n", err)
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// childEnv carries a childSpec (as JSON) to a child process: its
// presence is what makes a vodperf process run one rep instead of a
// whole benchmark.
const childEnv = "VODPERF_CHILD"

// childSpec is what one repetition runs.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rep      int    `json:"rep"`
	// Small shrinks every workload to about a second per rep (the smoke
	// test's size).
	Small bool `json:"small,omitempty"`
	// SetupOnly ends the child when its first timed operation starts: a
	// set-up sample and nothing else.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Spans, when set, turns tracing on: the rep's spans are appended to
	// this file when it ends.
	Spans string `json:"spans,omitempty"`
}

// repReport is what a child hands back on its standard output.
type repReport struct {
	// FirstOpNS is the wall clock (Unix ns) when the first timed
	// operation started: the end of set-up.
	FirstOpNS int64 `json:"first_op_ns"`
	// Answers are the latencies (ms) of the workload's user-level
	// answers; Classes are further latency samples by kind.
	Answers []float64            `json:"answers_ms"`
	Classes map[string][]float64 `json:"classes_ms,omitempty"`
	// Details are workload-specific numbers for this rep; Layers are
	// the per-layer probe results (probe reps only).
	Details   map[string]measurement `json:"details,omitempty"`
	Layers    map[string]measurement `json:"layers,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	// Digest fingerprints the rep's output; reps of one seed must agree.
	Digest    string  `json:"digest,omitempty"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
}

// child is the state of one repetition.
type child struct {
	childSpec
	tr       *tracer
	root     int // the rep's span
	endSetup func()
	rep      repReport
}

// childMain runs the rep described by spec and prints its report.
func childMain(spec string) int {
	c := &child{}
	if err := json.Unmarshal([]byte(spec), &c.childSpec); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf child:", err)
		return 2
	}
	run := repRunners[c.Workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "vodperf child: unknown workload %q\n", c.Workload)
		return 2
	}
	if c.Spans != "" {
		c.tr = &tracer{rep: c.Rep}
	}
	id := fmt.Sprintf("r%d", c.Rep)
	var endRep func()
	c.root, endRep = c.tr.begin(id, 0, "rep."+c.Workload)
	_, c.endSetup = c.tr.begin(id, c.root, "setup")
	if err := run(c); err != nil {
		c.rep.Attempted++
		c.fail(id, err)
	}
	if c.rep.FirstOpNS == 0 {
		c.endSetup() // set-up failed: no operation started
	}
	endRep()
	if c.tr != nil {
		if err := c.tr.appendTo(c.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "vodperf child: write spans:", err)
			return 1
		}
	}
	return c.report()
}

// report prints the rep's report and returns the child's exit code.
func (c *child) report() int {
	c.rep.AllocMB, c.rep.GCCPUFrac = runtimeStats()
	if err := json.NewEncoder(os.Stdout).Encode(&c.rep); err != nil {
		fmt.Fprintln(os.Stderr, "vodperf child:", err)
		return 1
	}
	return 0
}

// start marks the end of set-up; the first call wins. A set-up-only
// child reports and exits here.
func (c *child) start() {
	if c.rep.FirstOpNS == 0 {
		c.rep.FirstOpNS = time.Now().UnixNano()
		c.endSetup()
		if c.SetupOnly {
			os.Exit(c.report())
		}
	}
}

// op runs fn as one timed operation under span parent and returns its
// latency in ms. The operation's span is named name and carries id;
// fn receives the span's number so layer calls can nest under it.
// check, when non-nil, validates the output after the clock stops. An
// error from either counts the operation as failed.
func (c *child) op(id string, parent int, name string, fn func(sp int) error, check func() error) float64 {
	c.start()
	sp, end := c.tr.begin(id, parent, name)
	t0 := time.Now()
	err := fn(sp)
	ms := msSince(t0)
	end()
	c.rep.Attempted++
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		c.fail(id, err)
	}
	return ms
}

// call runs fn, a call into one layer, inside a span under parent.
func (c *child) call(id string, parent int, name string, fn func() error) error {
	_, end := c.tr.begin(id, parent, name)
	defer end()
	return fn()
}

// maxFailureNotes bounds the failure messages a report carries; the
// count stays exact.
const maxFailureNotes = 20

func (c *child) fail(id string, err error) {
	c.rep.Failed++
	if len(c.rep.Failures) < maxFailureNotes {
		c.rep.Failures = append(c.rep.Failures, fmt.Sprintf("%s: %v", id, err))
	}
}

func (c *child) answer(ms float64) { c.rep.Answers = append(c.rep.Answers, ms) }

func (c *child) sample(class string, ms float64) {
	if c.rep.Classes == nil {
		c.rep.Classes = map[string][]float64{}
	}
	c.rep.Classes[class] = append(c.rep.Classes[class], ms)
}

func (c *child) detail(name, unit string, v float64) {
	if c.rep.Details == nil {
		c.rep.Details = map[string]measurement{}
	}
	c.rep.Details[name] = measurement{Value: v, Unit: unit}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runtimeStats reads the process's total heap allocation (MB) and the
// share of its used CPU time spent in the garbage collector.
func runtimeStats() (allocMB, gcFrac float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	allocMB = float64(s[0].Value.Uint64()) / 1e6
	if used := s[2].Value.Float64() - s[3].Value.Float64(); used > 0 {
		gcFrac = s[1].Value.Float64() / used
	}
	return allocMB, gcFrac
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced repetition. Spans nest
// workload rep → operation → layer call; every span of one operation
// carries the operation's id, and Parent is the Span number of the
// enclosing span (0 for the rep itself).
type span struct {
	Rep    int    `json:"rep"`
	ID     string `json:"id"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a repetition's spans in memory until the rep ends. The
// nil tracer records nothing, so untraced reps pay one nil check per
// span. A tracer is safe for concurrent use.
type tracer struct {
	rep   int
	mu    sync.Mutex
	spans []span
}

func noop() {}

// begin opens a span and returns its number and the function that
// closes it.
func (t *tracer) begin(id string, parent int, name string) (int, func()) {
	if t == nil {
		return 0, noop
	}
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Rep: t.rep, ID: id, Span: i + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	t.mu.Unlock()
	return i + 1, func() {
		end := time.Now().UnixNano()
		t.mu.Lock()
		t.spans[i].End = end
		t.mu.Unlock()
	}
}

// appendTo writes the spans as JSON lines at the end of the file at path.
func (t *tracer) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotal is the time one span name accounts for across a trace.
type spanTotal struct {
	name    string
	count   int
	totalMS float64
	selfMS  float64 // total minus the time of the span's children
}

// summarizeSpans reads a JSONL span file and prints, per span name, how
// many spans there were and their total and self time per rep, largest
// self time first: where a traced workload's time goes.
func summarizeSpans(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type key struct{ rep, span int }
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	children := map[key]float64{}
	reps := map[int]bool{}
	for _, s := range spans {
		reps[s.Rep] = true
		if s.Parent != 0 {
			children[key{s.Rep, s.Parent}] += float64(s.End-s.Start) / 1e6
		}
	}
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{name: s.Name}
			byName[s.Name] = t
		}
		d := float64(s.End-s.Start) / 1e6
		t.count++
		t.totalMS += d
		t.selfMS += d - children[key{s.Rep, s.Span}]
	}
	totals := make([]*spanTotal, 0, len(byName))
	for _, t := range byName {
		totals = append(totals, t)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].selfMS > totals[j].selfMS })
	n := float64(len(reps))
	fmt.Fprintf(w, "  %-34s %8s %14s %14s\n", "span", "count", "total ms/rep", "self ms/rep")
	for _, t := range totals {
		fmt.Fprintf(w, "  %-34s %8d %14.3f %14.3f\n", t.name, t.count, t.totalMS/n, t.selfMS/n)
	}
	return nil
}

package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Arrive, Enroll, Queue, BatchStart, BatchEnd,
		PartitionExpire, VCRStart, ResumeHit, ResumeMiss, MergeDone, Depart, Blocked}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "unknown" {
		t.Error("out-of-range kind")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 1.5, Kind: ResumeHit, Movie: "m", Viewer: 7, Pos: 42.25, Detail: "FF"}
	s := e.String()
	for _, want := range []string{"t=1.500", "resume-hit", "movie=m", "viewer=7", "pos=42.250", "FF"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestRecorderUnbounded(t *testing.T) {
	var r Recorder
	for i := 0; i < 100; i++ {
		r.Trace(Event{Time: float64(i), Kind: Arrive})
	}
	if len(r.Events()) != 100 {
		t.Errorf("events=%d", len(r.Events()))
	}
	counts := r.CountByKind()
	if counts[Arrive] != 100 {
		t.Errorf("count %d", counts[Arrive])
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Trace(Event{Kind: Depart})
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 4000 {
		t.Errorf("events %d want 4000", got)
	}
}

func TestWriterLinesAndErrors(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf}
	w.Trace(Event{Kind: ResumeHit})
	w.Trace(Event{Kind: ResumeMiss, Movie: "x"})
	out := buf.String()
	if strings.Count(out, "\n") != 2 || !strings.Contains(out, "resume-hit") || !strings.Contains(out, "resume-miss") {
		t.Errorf("want one line per event: %q", out)
	}
	// A failing writer records the first error and keeps going.
	fw := &Writer{W: failWriter{}}
	fw.Trace(Event{})
	fw.Trace(Event{})
	if fw.Err == nil {
		t.Error("write error not captured")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink broken") }

func TestNopDiscards(t *testing.T) {
	Nop{}.Trace(Event{Kind: Arrive}) // must not panic
}

func TestParseLineRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: BatchStart, Movie: "m", Viewer: 0, Pos: 0, Detail: "partition=0"},
		{Time: 1.175, Kind: Arrive, Movie: "movie1", Viewer: 7, Pos: 0},
		{Time: 42.5, Kind: VCRStart, Movie: "m", Viewer: 3, Pos: 17.25, Detail: "FF amount=8.00"},
		{Time: 99.999, Kind: ResumeMiss, Movie: "m", Viewer: 3, Pos: 41.5, Detail: "RW"},
	}
	for _, want := range events {
		got, err := ParseLine(want.String())
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		// Time/pos survive to the printed precision (3 decimals).
		if math.Abs(got.Time-want.Time) > 5e-4 || math.Abs(got.Pos-want.Pos) > 5e-4 {
			t.Errorf("numeric fields drifted: %+v vs %+v", got, want)
		}
		if got.Kind != want.Kind || got.Movie != want.Movie || got.Viewer != want.Viewer || got.Detail != want.Detail {
			t.Errorf("round trip: %+v vs %+v", got, want)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"t=1.0 arrive",
		"x=1.0 arrive movie=m viewer=1 pos=0",
		"t=abc arrive movie=m viewer=1 pos=0",
		"t=1.0 nonsense movie=m viewer=1 pos=0",
		"t=1.0 arrive film=m viewer=1 pos=0",
		"t=1.0 arrive movie=m viewer=x pos=0",
		"t=1.0 arrive movie=m viewer=1 q=0",
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("%q: want error", line)
		}
	}
}

func TestAnalyzerAggregates(t *testing.T) {
	an := NewAnalyzer()
	feed := []Event{
		{Time: 0, Kind: Arrive, Movie: "m", Viewer: 1},
		{Time: 0, Kind: Queue, Movie: "m", Viewer: 1},
		{Time: 2, Kind: Arrive, Movie: "m", Viewer: 2},
		{Time: 5, Kind: VCRStart, Movie: "m", Viewer: 1, Pos: 5},
		{Time: 8, Kind: ResumeHit, Movie: "m", Viewer: 1, Pos: 14},
		{Time: 9, Kind: VCRStart, Movie: "m", Viewer: 2, Pos: 7},
		{Time: 10, Kind: ResumeMiss, Movie: "m", Viewer: 2, Pos: 3},
		{Time: 12, Kind: MergeDone, Movie: "m", Viewer: 2, Pos: 6},
		{Time: 20, Kind: Depart, Movie: "m", Viewer: 1},
		{Time: 30, Kind: Depart, Movie: "m", Viewer: 2},
		{Time: 1, Kind: Arrive, Movie: "other", Viewer: 9},
	}
	for _, e := range feed {
		an.Add(e)
	}
	if got := an.Movies(); len(got) != 2 || got[0] != "m" {
		t.Fatalf("movies %v", got)
	}
	s := an.Stats("m")
	if s.Arrivals != 2 || s.Departures != 2 || s.Queued != 1 {
		t.Errorf("flow %+v", s)
	}
	if s.Hits != 1 || s.Misses != 1 || math.Abs(s.HitRate()-0.5) > 1e-12 {
		t.Errorf("hits %+v", s)
	}
	if s.Merges != 1 || s.VCRStarts != 2 {
		t.Errorf("vcr %+v", s)
	}
	// Sessions: 20 and 28 minutes → mean 24. Phase 1: 3 and 1 → mean 2.
	if math.Abs(s.MeanSession-24) > 1e-9 {
		t.Errorf("mean session %g want 24", s.MeanSession)
	}
	if math.Abs(s.MeanPhase1-2) > 1e-9 {
		t.Errorf("mean phase1 %g want 2", s.MeanPhase1)
	}
	if an.Stats("missing") != (MovieStats{}) {
		t.Error("unknown movie should be zero")
	}
	if !strings.Contains(an.Summary(), "[other]") {
		t.Error("summary missing movie")
	}
	// Zero-resume hit rate.
	if an.Stats("other").HitRate() != 0 {
		t.Error("no resumes → rate 0")
	}
}

// TestAnalyzerMatchesSimulatorCounters attaches the analyzer live to a
// run and cross-checks against the simulator's own result — analysis and
// measurement must tell the same story.
func TestAnalyzerRoundTripThroughText(t *testing.T) {
	// Events → text lines → parse → analyzer gives identical stats to a
	// direct feed.
	direct := NewAnalyzer()
	parsed := NewAnalyzer()
	feed := []Event{
		{Time: 0.25, Kind: Arrive, Movie: "m", Viewer: 1},
		{Time: 3.5, Kind: VCRStart, Movie: "m", Viewer: 1, Pos: 3.25, Detail: "PAU amount=2.00"},
		{Time: 5.5, Kind: ResumeHit, Movie: "m", Viewer: 1, Pos: 3.25, Detail: "PAU"},
		{Time: 120.25, Kind: Depart, Movie: "m", Viewer: 1},
	}
	for _, e := range feed {
		direct.Add(e)
		got, err := ParseLine(e.String())
		if err != nil {
			t.Fatal(err)
		}
		parsed.Add(got)
	}
	if direct.Summary() != parsed.Summary() {
		t.Errorf("summaries diverge:\n%s\nvs\n%s", direct.Summary(), parsed.Summary())
	}
}

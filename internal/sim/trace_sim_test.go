package sim

import (
	"testing"

	"vodalloc/internal/trace"
)

// TestTraceEventConsistency cross-checks the trace stream against the
// simulator's own counters: every measured quantity must be derivable
// from the event log.
func TestTraceEventConsistency(t *testing.T) {
	var rec trace.Recorder
	cfg := threeMovieConfig()
	cfg.Horizon = 1200
	cfg.Tracer = &rec
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.CountByKind()

	var arrivals, departures, resumes, queued uint64
	for _, m := range sr.Movies {
		arrivals += m.Arrivals
		departures += m.Departures
		queued += m.QueuedArrivals
		// Resumes here includes pre-warmup events, which the counters
		// exclude; compare per-kind below on the full stream instead.
		resumes += m.Hits.N()
	}
	if uint64(counts[trace.Arrive]) != arrivals {
		t.Errorf("arrive events %d vs counter %d", counts[trace.Arrive], arrivals)
	}
	if uint64(counts[trace.Depart]) != departures {
		t.Errorf("depart events %d vs counter %d", counts[trace.Depart], departures)
	}
	if uint64(counts[trace.Queue]) != queued {
		t.Errorf("queue events %d vs counter %d", counts[trace.Queue], queued)
	}
	// Resume events cover warmup too, so they can only exceed the
	// measured count.
	if uint64(counts[trace.ResumeHit]+counts[trace.ResumeMiss]) < resumes {
		t.Errorf("resume events %d below measured %d",
			counts[trace.ResumeHit]+counts[trace.ResumeMiss], resumes)
	}
	// Every VCR start eventually resumes (or is still in flight at the
	// horizon).
	if counts[trace.VCRStart] < counts[trace.ResumeHit]+counts[trace.ResumeMiss] {
		t.Error("more resumes than VCR starts")
	}
	// Batch lifecycle: starts ≥ ends ≥ expirations.
	if counts[trace.BatchStart] < counts[trace.BatchEnd] ||
		counts[trace.BatchEnd] < counts[trace.PartitionExpire] {
		t.Errorf("batch lifecycle inverted: %d/%d/%d",
			counts[trace.BatchStart], counts[trace.BatchEnd], counts[trace.PartitionExpire])
	}
	// Timestamps are nondecreasing.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("trace out of order at %d: %v after %v", i, evs[i], evs[i-1])
		}
	}
	// Every event carries a known movie.
	names := map[string]bool{"a": true, "b": true, "c": true}
	for _, e := range evs {
		if !names[e.Movie] {
			t.Fatalf("event with unknown movie: %v", e)
		}
	}
}

// TestLiveAnalyzerMatchesResult attaches a trace.Analyzer as the live
// tracer and cross-checks its reconstruction against the simulator's own
// counters.
func TestLiveAnalyzerMatchesResult(t *testing.T) {
	an := trace.NewAnalyzer()
	cfg := threeMovieConfig()
	cfg.Horizon = 1000
	cfg.Warmup = 0 // counters and trace then cover the same window
	cfg.Tracer = an
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sr.Order {
		mr := sr.Movies[name]
		st := an.Stats(name)
		if st.Arrivals != mr.Arrivals || st.Departures != mr.Departures {
			t.Errorf("%s: flows diverge: trace %d/%d vs result %d/%d",
				name, st.Arrivals, st.Departures, mr.Arrivals, mr.Departures)
		}
		if st.Hits+st.Misses != mr.Hits.N() {
			t.Errorf("%s: resumes diverge: %d vs %d", name, st.Hits+st.Misses, mr.Hits.N())
		}
		if st.Hits != mr.Hits.Successes() {
			t.Errorf("%s: hits diverge: %d vs %d", name, st.Hits, mr.Hits.Successes())
		}
		if st.Queued != mr.QueuedArrivals {
			t.Errorf("%s: queued diverge: %d vs %d", name, st.Queued, mr.QueuedArrivals)
		}
	}
}

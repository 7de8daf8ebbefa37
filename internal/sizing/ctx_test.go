package sizing

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vodalloc/internal/dist"
	"vodalloc/internal/workload"
)

// ctxMovie builds a movie whose plan search is expensive enough to
// observe cancellation mid-flight: long pauses force deep quadrature
// scans, and the tiny wait target yields a wide frontier. The name
// varies per call so the memo cache never short-circuits the work.
func ctxMovie(name string, length float64) workload.Movie {
	return workload.Movie{
		Name: name, Length: length, Wait: 0.25, TargetHit: 0.5,
		Profile: workload.MixedProfile(dist.MustExponential(5), dist.MustExponential(15)),
	}
}

// TestEvaluatorCtxPreCanceled verifies every ctx entry point returns the
// context error immediately (bounded by at most one model evaluation)
// when called with an already-dead context, without touching the cache.
func TestEvaluatorCtxPreCanceled(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Evaluator{Workers: 2}
	m := ctxMovie("pre-canceled", 120)

	tests := []struct {
		name string
		call func() error
	}{
		{"FeasibleByBufferStepCtx", func() error {
			_, err := e.FeasibleByBufferStepCtx(dead, m, DefaultRates, 5)
			return err
		}},
		{"MaxFeasibleStreamsCtx", func() error {
			_, err := e.MaxFeasibleStreamsCtx(dead, m, DefaultRates)
			return err
		}},
		{"MinBufferPlanCtx", func() error {
			_, err := e.MinBufferPlanCtx(dead, []workload.Movie{m}, DefaultRates, 0, 0)
			return err
		}},
		{"CostCurveCtx", func() error {
			_, err := e.CostCurveCtx(dead, []workload.Movie{m}, DefaultRates, 11, 0)
			return err
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			err := tc.call()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Generous bound: a dead context must short-circuit before any
			// real integration happens.
			if d := time.Since(start); d > 200*time.Millisecond {
				t.Errorf("took %v on a dead context", d)
			}
		})
	}
}

// cancelingDur is a duration distribution whose CDF cancels a context
// on its k-th call, counted across every copy and goroutine: planning
// against it is canceled mid-sweep by construction, however fast the
// sweep runs. The counter sits behind a pointer, so the evaluator's
// cache fingerprint (%+v) prints an address and never reads it.
type cancelingDur struct {
	dist.Distribution
	at *cancelAt
}

type cancelAt struct {
	calls  atomic.Int64
	k      int64
	cancel context.CancelFunc
}

func (d cancelingDur) CDF(x float64) float64 {
	if d.at.calls.Add(1) == d.at.k {
		d.at.cancel()
	}
	return d.Distribution.CDF(x)
}

// TestEvaluatorCtxConcurrentCancel verifies a cancellation arriving
// mid-search stops the evaluator promptly: the call must return the
// context error well before the uncanceled search would finish.
func TestEvaluatorCtxConcurrentCancel(t *testing.T) {
	e := &Evaluator{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The cancel fires on the 50,000th CDF call: a few model
	// evaluations into a 16-movie plan that makes millions. Distinct
	// names and lengths defeat the memo cache.
	dur := cancelingDur{Distribution: dist.MustExponential(5), at: &cancelAt{k: 50_000, cancel: cancel}}
	var movies []workload.Movie
	for i := 0; i < 16; i++ {
		m := ctxMovie(string(rune('a'+i)), 100+float64(i))
		m.Profile = workload.MixedProfile(dur, dist.MustExponential(15))
		movies = append(movies, m)
	}

	start := time.Now()
	_, err := e.MinBufferPlanCtx(ctx, movies, DefaultRates, 0, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (finished in %v after %d CDF calls?)", err, elapsed, dur.at.calls.Load())
	}
	// The promptness contract: return within one model evaluation of the
	// cancel. One evaluation is milliseconds; 500ms is generous enough
	// for slow CI machines while still far below the full search time.
	if elapsed > 500*time.Millisecond {
		t.Errorf("returned %v after start; want prompt return after the mid-sweep cancel", elapsed)
	}
}

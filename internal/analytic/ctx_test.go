package analytic

import (
	"context"
	"testing"

	"vodalloc/internal/dist"
)

// TestHitMixCtxCancellation verifies the ctx-aware evaluation surface:
// a live context reproduces HitMix exactly, and a dead one returns the
// context error from every entry point.
func TestHitMixCtxCancellation(t *testing.T) {
	m := MustNew(Config{L: 120, B: 60, N: 30, RatePB: 1, RateFF: 3, RateRW: 3})
	d := dist.MustGamma(2, 4)
	mix := Mix{PFF: 0.2, PRW: 0.2, PPAU: 0.6, FF: d, RW: d, PAU: d}

	want, err := m.HitMix(mix)
	if err != nil {
		t.Fatalf("HitMix: %v", err)
	}
	got, err := m.HitMixCtx(context.Background(), mix)
	if err != nil {
		t.Fatalf("HitMixCtx: %v", err)
	}
	if got != want {
		t.Errorf("HitMixCtx = %v, HitMix = %v (must be bit-identical)", got, want)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.HitMixCtx(dead, mix); err != context.Canceled {
		t.Errorf("HitMixCtx on dead ctx = %v, want context.Canceled", err)
	}
	for _, op := range []Op{FF, RW, PAU} {
		if _, err := m.HitCtx(dead, op, d); err != context.Canceled {
			t.Errorf("HitCtx(%v) on dead ctx = %v, want context.Canceled", op, err)
		}
	}

	// B=0 pure batching paths short-circuit but must still honor the
	// context.
	pb := MustNew(Config{L: 120, B: 0, N: 30, RatePB: 1, RateFF: 3, RateRW: 3})
	if _, err := pb.HitFFCtx(dead, d); err != context.Canceled {
		t.Errorf("pure-batching HitFFCtx on dead ctx = %v, want context.Canceled", err)
	}
}

// BenchmarkHitPAU times one P(hit|PAU) evaluation at the sensitivity
// experiment's (120, 60, 30) on a warm duration cache, for the paper's
// two families and the two heavy tails whose scans run to pauExactScan.
// Reports evaluations per second.
func BenchmarkHitPAU(b *testing.B) {
	ln, err := dist.LognormalFromMoments(8, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    dist.Distribution
	}{
		{"exponential", dist.MustExponential(8)},
		{"gamma", dist.MustGamma(2, 4)},
		{"lognormal", ln},
		{"pareto", dist.MustPareto(8*(2.2-1)/2.2, 2.2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := MustNew(Config{L: 120, B: 60, N: 30, RatePB: 1, RateFF: 3, RateRW: 3})
			sink := m.HitPAU(c.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m.HitPAU(c.d)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
			if sink < 0 {
				b.Fatal("negative hit probability")
			}
		})
	}
}

package analytic

import (
	"math"
	"runtime"
	"testing"

	"vodalloc/internal/dist"
)

// durPoints spans the model's duration arguments: 0, the series and tail
// regimes of small-shape gammas, and past the movie length.
var durPoints = []float64{-1, 0, 1e-3, 0.1, 0.5, 1, 2.5, 4, 7.9, 8, 12, 30, 60, 119.5, 120, 400}

// TestDurFnFGMatchesSeparateCalls pins the fused F/G against separate
// evaluations. FG always equals the durFn's own F and G bit for bit. The
// exponential's shared Expm1 and the general path of non-integer gamma
// shapes reproduce the separate closed forms exactly. At integer shapes
// IncGammaPair's P(k+1) may differ from a separate CDF call in the last
// bits, so G agrees to rounding of its larger term x·F: within 4e-15 of
// it up to k = 16, and 3e-14 at k = 32, where the separate call for
// k+1 = 33 takes the general path's log-domain prefactor.
func TestDurFnFGMatchesSeparateCalls(t *testing.T) {
	for _, d := range []dist.Distribution{
		dist.MustExponential(8), dist.MustExponential(0.3),
		dist.MustGamma(2, 4), dist.MustGamma(3, 1.5), dist.MustGamma(1, 5), dist.MustGamma(32, 0.5),
		dist.MustGamma(2.5, 3), dist.MustGamma(0.7, 3), dist.MustGamma(40, 1),
	} {
		f := newDurFn(d, 120)
		for _, x := range durPoints {
			fx, gx := f.FG(x)
			if fx != f.F(x) || gx != f.G(x) {
				t.Errorf("%v: FG(%g) = (%v, %v), F, G = (%v, %v)", d, x, fx, gx, f.F(x), f.G(x))
			}
			if fx != d.CDF(x) {
				t.Errorf("%v: FG(%g) F = %v, CDF = %v", d, x, fx, d.CDF(x))
			}
			var want float64
			exact := true
			switch d := d.(type) {
			case dist.Exponential:
				if x > 0 {
					want = x + d.Mean()*math.Expm1(-x/d.Mean())
				}
			case dist.Gamma:
				k, th := d.Shape(), d.Scale()
				if x > 0 {
					want = x*d.CDF(x) - k*th*dist.MustGamma(k+1, th).CDF(x)
				}
				exact = k != math.Trunc(k) || k > 32
			}
			if exact && gx != want {
				t.Errorf("%v: FG(%g) G = %v, separate calls %v", d, x, gx, want)
			}
			if !exact && math.Abs(gx-want) > 1e-13*x*fx {
				t.Errorf("%v: FG(%g) G = %.17g, separate calls %.17g", d, x, gx, want)
			}
		}
	}
}

// BenchmarkDurFnFG times one fused F/G evaluation — what the model pays
// per integration point — for the paper's Gamma(2, 4) and an exponential
// of the same mean, cycling through arguments across a 120-minute movie.
// Reports evaluations per second.
func BenchmarkDurFnFG(b *testing.B) {
	for _, c := range []struct {
		name string
		d    dist.Distribution
	}{
		{"gamma", dist.MustGamma(2, 4)},
		{"exponential", dist.MustExponential(8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newDurFn(c.d, 120)
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx, gx := f.FG(float64(i%1200) / 10)
				sink += fx + gx
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
			if sink < 0 {
				b.Fatal("negative F + G")
			}
		})
	}
}

// TestClosedFormHSelection checks which families get a closed-form H:
// every family with one, except Pareto with α ≤ 1; the wrappers keep the
// u-quadrature.
func TestClosedFormHSelection(t *testing.T) {
	ln, err := dist.LognormalFromMoments(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	exp := dist.MustExponential(8)
	for _, c := range []struct {
		d    dist.Distribution
		want bool
	}{
		{exp, true},
		{dist.MustGamma(2, 4), true},
		{dist.MustUniform(0, 16), true},
		{dist.MustDeterministic(8), true},
		{ln, true},
		{dist.MustWeibull(1.5, 9), true},
		{dist.MustPareto(4, 2.2), true},
		{dist.MustPareto(4, 1), false},
		{dist.MustTruncated(exp, 0, 120), false},
		{dist.MustFolded(exp, 120), false},
		{dist.MustMixture(dist.Component{Weight: 1, Dist: exp}), false},
		{dist.MustEmpirical([]float64{1, 2, 3}), false},
	} {
		if got := newDurFn(c.d, 120).H != nil; got != c.want {
			t.Errorf("%T%+v: closed-form H %v, want %v", c.d, c.d, got, c.want)
		}
	}
}

// TestDurationCacheDiesWithItsModel pins the duration functionals'
// lifetime: they are cached per model and collected with it, so a
// long-running service that evaluates ever new movie lengths keeps no
// garbage. A few hundred models at distinct L with a lognormal
// duration, each building its 8,193-point G grid, must leave the heap
// after GC within a few MB of where it started.
func TestDurationCacheDiesWithItsModel(t *testing.T) {
	d := dist.MustLognormal(1, 1.2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const models = 300
	for i := 0; i < models; i++ {
		m := MustNew(Config{L: 60 + float64(i)/4, B: 10, N: 10, RatePB: 1, RateFF: 3, RateRW: 3})
		if h := m.HitFF(d); !(h >= 0 && h <= 1) {
			t.Fatalf("L=%v: P(hit|FF) = %v", 60+float64(i)/4, h)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %.2f MB over %d models", float64(grew)/(1<<20), models)
	if grew > 8<<20 {
		t.Fatalf("heap grew %.1f MB over %d models, %.0f KB each", float64(grew)/(1<<20), models, float64(grew)/models/1024)
	}
}

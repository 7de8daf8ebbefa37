package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %.10g want %.10g (tol %g)", name, got, want, tol)
	}
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}; P(k, x) for integer k is the Erlang CDF.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		approx(t, "P(1,x)", regIncGammaP(1, x), 1-math.Exp(-x), 1e-12)
	}
	// P(2, x) = 1 - e^{-x}(1+x).
	for _, x := range []float64{0.25, 1, 3, 8} {
		approx(t, "P(2,x)", regIncGammaP(2, x), 1-math.Exp(-x)*(1+x), 1e-12)
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.01, 0.5, 2, 6} {
		approx(t, "P(0.5,x)", regIncGammaP(0.5, x), math.Erf(math.Sqrt(x)), 1e-12)
	}
	// Complementarity.
	for _, a := range []float64{0.3, 1, 2.7, 9} {
		for _, x := range []float64{0.2, 1, 4, 12} {
			approx(t, "P+Q", regIncGammaP(a, x)+regIncGammaQ(a, x), 1, 1e-12)
		}
	}
	// Edge cases.
	if got := regIncGammaP(2, 0); got != 0 {
		t.Errorf("P(2,0)=%g want 0", got)
	}
	if got := regIncGammaP(2, math.Inf(1)); got != 1 {
		t.Errorf("P(2,inf)=%g want 1", got)
	}
	if !math.IsNaN(regIncGammaP(-1, 2)) {
		t.Error("P(-1,2) should be NaN")
	}
}

// sampleMoments draws n variates and returns mean and variance.
func sampleMoments(d Distribution, n int, seed int64) (mean, variance float64) {
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestExponentialBasics(t *testing.T) {
	d := MustExponential(8)
	approx(t, "mean", d.Mean(), 8, 0)
	approx(t, "var", d.Variance(), 64, 0)
	approx(t, "cdf@mean", d.CDF(8), 1-math.Exp(-1), 1e-12)
	approx(t, "pdf@0+", d.PDF(0), 1.0/8, 1e-12)
	if d.PDF(-1) != 0 || d.CDF(-1) != 0 {
		t.Error("negative support must be empty")
	}
	approx(t, "quantile(median)", d.Quantile(0.5), 8*math.Ln2, 1e-12)
	if !math.IsInf(d.Quantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(d.Quantile(-0.1)) || !math.IsNaN(d.Quantile(1.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
	m, v := sampleMoments(d, 200000, 1)
	approx(t, "sample mean", m, 8, 0.15)
	approx(t, "sample var", v, 64, 2.5)
}

func TestExponentialBadParams(t *testing.T) {
	for _, mean := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(mean); !errors.Is(err, ErrBadParam) {
			t.Errorf("mean=%v: want ErrBadParam, got %v", mean, err)
		}
	}
}

func TestGammaPaperParameters(t *testing.T) {
	// The paper's skewed gamma: shape 2, scale 4, mean 8.
	d := MustGamma(2, 4)
	approx(t, "mean", d.Mean(), 8, 0)
	approx(t, "var", d.Variance(), 32, 0)
	// CDF of Gamma(2, 4) = 1 - e^{-x/4}(1 + x/4).
	for _, x := range []float64{1, 4, 8, 20, 60} {
		want := 1 - math.Exp(-x/4)*(1+x/4)
		approx(t, "cdf", d.CDF(x), want, 1e-12)
	}
	// PDF integrates to the CDF increment (trapezoid spot check).
	h := 0.001
	var acc float64
	for x := 0.0; x < 8; x += h {
		acc += 0.5 * (d.PDF(x) + d.PDF(x+h)) * h
	}
	approx(t, "∫pdf", acc, d.CDF(8), 1e-5)
	m, v := sampleMoments(d, 200000, 2)
	approx(t, "sample mean", m, 8, 0.1)
	approx(t, "sample var", v, 32, 1.2)
}

func TestGammaShapeBelowOne(t *testing.T) {
	d := MustGamma(0.5, 2)
	approx(t, "mean", d.Mean(), 1, 0)
	if !math.IsInf(d.PDF(0), 1) {
		t.Error("PDF(0) should diverge for shape < 1")
	}
	m, _ := sampleMoments(d, 200000, 3)
	approx(t, "sample mean", m, 1, 0.05)
	// CDF via erf identity: Gamma(0.5, 2).CDF(x) = erf(sqrt(x/2)).
	for _, x := range []float64{0.1, 1, 3} {
		approx(t, "cdf", d.CDF(x), math.Erf(math.Sqrt(x/2)), 1e-12)
	}
}

func TestGammaShapeOneMatchesExponential(t *testing.T) {
	g := MustGamma(1, 5)
	e := MustExponential(5)
	for _, x := range []float64{0, 0.5, 2, 10, 40} {
		approx(t, "cdf", g.CDF(x), e.CDF(x), 1e-12)
	}
	approx(t, "pdf@0", g.PDF(0), e.PDF(0), 1e-12)
}

func TestUniformBasics(t *testing.T) {
	d := MustUniform(2, 6)
	approx(t, "mean", d.Mean(), 4, 0)
	approx(t, "var", d.Variance(), 16.0/12, 1e-12)
	approx(t, "cdf mid", d.CDF(3), 0.25, 1e-12)
	approx(t, "pdf", d.PDF(5), 0.25, 1e-12)
	if d.PDF(1.9) != 0 || d.PDF(6.1) != 0 {
		t.Error("pdf outside support must be 0")
	}
	approx(t, "quantile", d.Quantile(0.75), 5, 1e-12)
	m, _ := sampleMoments(d, 100000, 4)
	approx(t, "sample mean", m, 4, 0.03)
}

func TestDeterministicBasics(t *testing.T) {
	d := MustDeterministic(7)
	approx(t, "mean", d.Mean(), 7, 0)
	if d.CDF(6.999) != 0 || d.CDF(7) != 1 {
		t.Error("step CDF wrong")
	}
	if d.Sample(nil) != 7 {
		t.Error("sample must equal the point mass")
	}
	approx(t, "P(6,8)", Prob(d, 6, 8), 1, 0)
	approx(t, "P(7,8)", Prob(d, 7, 8), 0, 0)
}

func TestWeibullBasics(t *testing.T) {
	// Weibull(k=1) is exponential.
	d := MustWeibull(1, 3)
	e := MustExponential(3)
	for _, x := range []float64{0.2, 1, 5} {
		approx(t, "cdf vs exp", d.CDF(x), e.CDF(x), 1e-12)
	}
	w := MustWeibull(2, 10)
	approx(t, "mean", w.Mean(), 10*math.Gamma(1.5), 1e-12)
	m, _ := sampleMoments(w, 150000, 5)
	approx(t, "sample mean", m, w.Mean(), 0.08)
	approx(t, "median", w.Quantile(0.5), 10*math.Sqrt(math.Ln2), 1e-12)
}

func TestTruncatedExponentialOnMovieLength(t *testing.T) {
	base := MustExponential(8)
	d := MustTruncated(base, 0, 120)
	if got := d.CDF(120); got != 1 {
		t.Errorf("CDF at hi = %g want 1", got)
	}
	if got := d.CDF(0); got != 0 {
		t.Errorf("CDF at lo = %g want 0", got)
	}
	// Renormalization: truncated CDF = F(x)/F(120).
	for _, x := range []float64{1, 8, 40, 100} {
		approx(t, "cdf", d.CDF(x), base.CDF(x)/base.CDF(120), 1e-12)
	}
	// Mean of Exp(8) truncated to [0,120] ≈ 8 − 120·e^{-15}/(1−e^{-15}) ≈ 8.
	approx(t, "mean", d.Mean(), 8, 1e-3)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < 0 || v > 120 {
			t.Fatalf("sample %g escaped truncation", v)
		}
	}
}

func TestTruncatedErrors(t *testing.T) {
	base := MustExponential(1)
	if _, err := NewTruncated(base, 5, 5); !errors.Is(err, ErrBadParam) {
		t.Error("empty interval must fail")
	}
	if _, err := NewTruncated(base, -10, -5); !errors.Is(err, ErrBadParam) {
		t.Error("zero-mass interval must fail")
	}
}

func TestFoldedMatchesModuloSampling(t *testing.T) {
	base := MustExponential(50)
	d := MustFolded(base, 30)
	if got := d.CDF(30); got != 1 {
		t.Errorf("CDF at period = %g want 1", got)
	}
	// Monte-Carlo check of the folded CDF at a few points.
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	counts := map[float64]int{5: 0, 15: 0, 25: 0}
	for i := 0; i < n; i++ {
		v := math.Mod(base.Sample(rng), 30)
		for q := range counts {
			if v <= q {
				counts[q]++
			}
		}
	}
	for q, c := range counts {
		emp := float64(c) / n
		approx(t, "folded cdf", d.CDF(q), emp, 0.01)
	}
	// Folded mean below period.
	if m := d.Mean(); m <= 0 || m >= 30 {
		t.Errorf("folded mean %g outside (0, 30)", m)
	}
}

func TestFoldedRejectsNegativeSupport(t *testing.T) {
	if _, err := NewFolded(MustUniform(-1, 1), 10); !errors.Is(err, ErrBadParam) {
		t.Error("negative support must fail")
	}
	if _, err := NewFolded(MustExponential(1), 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero period must fail")
	}
}

func TestMixtureBasics(t *testing.T) {
	m := MustMixture(
		Component{Weight: 1, Dist: MustUniform(0, 1)},
		Component{Weight: 3, Dist: MustUniform(2, 4)},
	)
	approx(t, "mean", m.Mean(), 0.25*0.5+0.75*3, 1e-12)
	approx(t, "cdf@1.5", m.CDF(1.5), 0.25, 1e-12)
	approx(t, "cdf@4", m.CDF(4), 1, 1e-12)
	lo, hi := m.Support()
	if lo != 0 || hi != 4 {
		t.Errorf("support [%g, %g] want [0, 4]", lo, hi)
	}
	rng := rand.New(rand.NewSource(8))
	inFirst := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(rng) <= 1 {
			inFirst++
		}
	}
	approx(t, "component frequency", float64(inFirst)/n, 0.25, 0.01)
}

func TestMixtureErrors(t *testing.T) {
	if _, err := NewMixture(); !errors.Is(err, ErrBadParam) {
		t.Error("empty mixture must fail")
	}
	if _, err := NewMixture(Component{Weight: -1, Dist: MustUniform(0, 1)}); !errors.Is(err, ErrBadParam) {
		t.Error("negative weight must fail")
	}
	if _, err := NewMixture(Component{Weight: 1, Dist: nil}); !errors.Is(err, ErrBadParam) {
		t.Error("nil dist must fail")
	}
	if _, err := NewMixture(Component{Weight: 0, Dist: MustUniform(0, 1)}); !errors.Is(err, ErrBadParam) {
		t.Error("zero total weight must fail")
	}
}

func TestEmpiricalRoundTrip(t *testing.T) {
	// Fit an empirical distribution to gamma draws; it should reproduce the
	// source's CDF within sampling error.
	src := MustGamma(2, 4)
	rng := rand.New(rand.NewSource(9))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = src.Sample(rng)
	}
	d := MustEmpirical(samples)
	for _, x := range []float64{2, 8, 16, 30} {
		approx(t, "cdf", d.CDF(x), src.CDF(x), 0.02)
	}
	approx(t, "mean", d.Mean(), 8, 0.25)
	// Quantile/CDF are inverse on the interpolated curve.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		x := d.Quantile(p)
		approx(t, "quantile inverse", d.CDF(x), p, 1e-9)
	}
}

func TestEmpiricalErrors(t *testing.T) {
	if _, err := NewEmpirical([]float64{1}); !errors.Is(err, ErrBadParam) {
		t.Error("single sample must fail")
	}
	if _, err := NewEmpirical([]float64{1, 1, 1}); !errors.Is(err, ErrBadParam) {
		t.Error("constant samples must fail")
	}
	if _, err := NewEmpirical([]float64{1, math.NaN()}); !errors.Is(err, ErrBadParam) {
		t.Error("NaN sample must fail")
	}
}

func TestGenericQuantileFallback(t *testing.T) {
	// Gamma has no native Quantiler; generic bisection must invert its CDF.
	d := MustGamma(2, 4)
	for _, p := range []float64{0.05, 0.3, 0.5, 0.9, 0.99} {
		x := Quantile(d, p)
		approx(t, "bisection quantile", d.CDF(x), p, 1e-9)
	}
	if !math.IsNaN(Quantile(d, -0.5)) {
		t.Error("invalid p should give NaN")
	}
	if got := Quantile(d, 0); got != 0 {
		t.Errorf("p=0 should give support lower bound, got %g", got)
	}
}

func TestSampleInverse(t *testing.T) {
	d := MustGamma(2, 4)
	rng := rand.New(rand.NewSource(10))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += SampleInverse(d, rng)
	}
	approx(t, "inverse-sample mean", sum/n, 8, 0.4)
}

func TestProbClamping(t *testing.T) {
	d := MustExponential(1)
	if Prob(d, 5, 3) != 0 {
		t.Error("b<=a must give 0")
	}
	approx(t, "Prob", Prob(d, 1, 2), d.CDF(2)-d.CDF(1), 1e-15)
}

// Property: every family's CDF is monotone nondecreasing, bounded in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	dists := []Distribution{
		MustExponential(8),
		MustGamma(2, 4),
		MustGamma(0.5, 1),
		MustUniform(1, 9),
		MustWeibull(1.5, 6),
		MustTruncated(MustGamma(2, 4), 0, 120),
		MustFolded(MustExponential(40), 120),
		MustMixture(
			Component{Weight: 1, Dist: MustExponential(2)},
			Component{Weight: 2, Dist: MustGamma(3, 1)},
		),
		MustLognormal(1, 0.8),
		MustPareto(2, 2.5),
	}
	prop := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 300 // [0, ~218]
		b := float64(bRaw) / 300
		if a > b {
			a, b = b, a
		}
		for _, d := range dists {
			ca, cb := d.CDF(a), d.CDF(b)
			if ca < 0 || cb > 1 || ca > cb+1e-12 {
				return false
			}
			if d.PDF(a) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: samples always land inside the declared support.
func TestPropertySamplesInSupport(t *testing.T) {
	dists := []Distribution{
		MustExponential(3),
		MustGamma(2, 4),
		MustUniform(-5, 5),
		MustWeibull(0.8, 2),
		MustTruncated(MustExponential(8), 1, 20),
		MustFolded(MustGamma(2, 4), 15),
		MustEmpirical([]float64{1, 2, 2.5, 7, 9}),
	}
	rng := rand.New(rand.NewSource(11))
	for _, d := range dists {
		lo, hi := d.Support()
		for i := 0; i < 2000; i++ {
			v := d.Sample(rng)
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("%T: sample %g outside support [%g, %g]", d, v, lo, hi)
			}
		}
	}
}

// Property: quantile and CDF are mutually consistent for Quantilers.
func TestPropertyQuantileInverts(t *testing.T) {
	dists := []Distribution{
		MustExponential(4),
		MustUniform(2, 10),
		MustWeibull(2, 5),
	}
	prop := func(pRaw uint16) bool {
		p := float64(pRaw) / 65535 * 0.998 // stay off the extreme tail
		for _, d := range dists {
			x := Quantile(d, p)
			if math.Abs(d.CDF(x)-p) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestParseSpecFamilies(t *testing.T) {
	for spec, mean := range map[string]float64{
		"exp:8":         8,
		"gamma:2:4":     8,
		"uniform:2:6":   4,
		"det:5":         5,
		"weibull:1:3":   3,
		"lognormal:0:1": math.Exp(0.5),
		"pareto:2:3":    3,
	} {
		d, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if math.Abs(d.Mean()-mean) > 1e-9 {
			t.Errorf("%s: mean %g want %g", spec, d.Mean(), mean)
		}
	}
	for _, spec := range []string{
		"", "nope:1", "exp", "exp:1:2", "gamma:x:1", "pareto:1",
		"gamma:2", "exp:abc", "uniform:5:1", "gamma:-1:2",
	} {
		if _, err := Parse(spec); !errors.Is(err, ErrBadParam) {
			t.Errorf("%q: want ErrBadParam, got %v", spec, err)
		}
	}
}

func TestGammaFromMoments(t *testing.T) {
	d, err := GammaFromMoments(8, 0.71)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mean", d.Mean(), 8, 1e-9)
	approx(t, "cv", math.Sqrt(d.Variance())/d.Mean(), 0.71, 1e-9)
	// The paper's Gamma(2, 4) corresponds to cv = 1/√2.
	p, err := GammaFromMoments(8, 1/math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "paper shape", p.Shape(), 2, 1e-9)
	approx(t, "paper scale", p.Scale(), 4, 1e-9)
	if _, err := GammaFromMoments(0, 1); !errors.Is(err, ErrBadParam) {
		t.Error("zero mean must fail")
	}
	if _, err := GammaFromMoments(8, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero cv must fail")
	}
}

package dist

import (
	"fmt"
	"math"
	"testing"

	"vodalloc/internal/quad"
)

// excessMeaner matches the families that carry a closed-form excess
// mean.
type excessMeaner interface {
	Distribution
	ExcessMean(x float64) float64
}

// refExcessMean integrates 1 − F from x to the end of d's support with
// adaptive Simpson: 1 − F is exactly 1 below the support, the bounded
// part is one integral, and an unbounded tail is summed over doubling
// chunks until a chunk adds nothing.
func refExcessMean(t *testing.T, d Distribution, x float64) float64 {
	t.Helper()
	lo, hi := d.Support()
	var h float64
	if x < lo {
		h, x = lo-x, lo
	}
	integrate := func(a, b float64) float64 {
		v, err := quad.Adaptive(func(t float64) float64 { return 1 - d.CDF(t) }, a, b, 1e-15*(b-a))
		if err != nil {
			t.Fatalf("reference integral over [%g, %g]: %v", a, b, err)
		}
		return v
	}
	if !math.IsInf(hi, 1) {
		if x < hi {
			h += integrate(x, hi)
		}
		return h
	}
	w := d.Mean()
	for k := 0; k < 200; k++ {
		v := integrate(x, x+w)
		h += v
		if v <= 1e-17*h {
			break
		}
		x += w
		w *= 2
	}
	return h
}

// TestExcessMeanMatchesQuadrature checks each family's closed-form
// H(x) = E[(X − x)⁺] against quadrature of 1 − F below the support, inside
// it and far into the tail (the 1 − 1e-7 quantile, where 1 − F still has
// digits to integrate), and H(0) = E[X] for non-negative supports.
func TestExcessMeanMatchesQuadrature(t *testing.T) {
	ln, err := LognormalFromMoments(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	gam25, err := GammaFromMoments(8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	quantiles := []float64{0.1, 0.5, 0.9, 0.999}
	const tailP = 1 - 1e-7
	for _, tc := range []struct {
		d       excessMeaner
		nonNeg  bool
		extraXs []float64
		abs     float64 // absolute tolerance where the reference loses mass
	}{
		{MustExponential(8), true, nil, 0},
		{MustExponential(0.3), true, nil, 0},
		{MustGamma(2, 4), true, nil, 0},
		{MustGamma(5, 1.5), true, nil, 0},
		{gam25, true, nil, 0},
		{MustGamma(0.5, 16), true, nil, 0},
		{ln, true, nil, 0},
		{MustLognormal(0, 0.4), true, nil, 0},
		{MustPareto(9, 2.5), true, []float64{4.5, 9}, 0},
		// 1 − F rounds to 0 once (xm/t)^α < 1e-16, and past that point an
		// α = 2.2 tail still holds ~4e-9 of H: the reference misses it.
		{MustPareto(8*1.2/2.2, 2.2), true, nil, 5e-9},
		{MustWeibull(2, 9), true, nil, 0},
		{MustWeibull(0.7, 6), true, nil, 0},
		{MustUniform(6, 10), true, []float64{6, 10, 12}, 0},
		{MustUniform(0, 16), true, []float64{16, 20}, 0},
		{MustUniform(-2, 3), false, []float64{-2, -1, 3, 4}, 0},
		{MustDeterministic(8), true, []float64{7.5, 8, 8.5}, 0},
		{MustDeterministic(-1), false, []float64{-2, -1, 0}, 0},
	} {
		name := fmt.Sprintf("%T%+v", tc.d, tc.d)
		lo, hi := tc.d.Support()
		xs := append([]float64{lo - 3, -1, 0}, tc.extraXs...)
		for _, p := range quantiles {
			xs = append(xs, Quantile(tc.d, p))
		}
		tail := math.IsInf(hi, 1)
		if tail {
			xs = append(xs, Quantile(tc.d, tailP))
		}
		for i, x := range xs {
			got, want := tc.d.ExcessMean(x), refExcessMean(t, tc.d, x)
			tol := math.Max(1e-9*math.Max(1, want), tc.abs)
			if tail && i == len(xs)-1 {
				// 1 − F carries ~1e-16/1e-7 relative error out here.
				tol = 1e-5 * want
			}
			if math.IsNaN(got) || math.Abs(got-want) > tol {
				t.Errorf("%s: H(%g) = %.15g, quadrature %.15g (|Δ| %.2g > %.2g)",
					name, x, got, want, math.Abs(got-want), tol)
			}
		}
		if tc.nonNeg {
			if got, want := tc.d.ExcessMean(0), tc.d.Mean(); math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s: H(0) = %.15g, mean %.15g", name, got, want)
			}
			if got, want := tc.d.ExcessMean(-2.5), tc.d.Mean()+2.5; math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s: H(-2.5) = %.15g, want E[X] + 2.5 = %.15g", name, got, want)
			}
		}
	}
}

// TestGammaExcessMeanDeepTail checks the gamma H where 1 − P has no
// digits left, against the Erlang form θ·e^{−z}·Σ_{j<k} (k − j)·z^j/j!
// at z = x/θ.
func TestGammaExcessMeanDeepTail(t *testing.T) {
	for _, d := range []Gamma{MustGamma(2, 4), MustGamma(3, 2), MustGamma(1, 8)} {
		k, th := d.Shape(), d.Scale()
		for _, z := range []float64{40, 200, 650} {
			var sum float64
			term := 1.0 // z^j/j!
			for j := 0.0; j < k; j++ {
				sum += (k - j) * term
				term *= z / (j + 1)
			}
			want := th * math.Exp(-z) * sum
			if got := d.ExcessMean(z * th); math.Abs(got-want) > 1e-12*want {
				t.Errorf("Gamma(%g, %g): H(%g) = %.15g, Erlang form %.15g", k, th, z*th, got, want)
			}
		}
	}
}

// TestExcessMeanWithoutClosedForm checks the families that have no
// finite closed-form H: Pareto with α ≤ 1 reports +Inf (its mean is
// infinite), and the wrappers do not carry the method at all.
func TestExcessMeanWithoutClosedForm(t *testing.T) {
	for _, alpha := range []float64{0.5, 1} {
		if h := MustPareto(2, alpha).ExcessMean(10); !math.IsInf(h, 1) {
			t.Errorf("Pareto α=%g: H(10) = %v, want +Inf", alpha, h)
		}
	}
	for _, d := range []Distribution{
		MustTruncated(MustExponential(8), 0, 120),
		MustFolded(MustExponential(8), 120),
		MustMixture(Component{Weight: 1, Dist: MustExponential(8)}),
		MustEmpirical([]float64{1, 2, 3}),
	} {
		if _, ok := d.(excessMeaner); ok {
			t.Errorf("%T reports a closed-form excess mean", d)
		}
	}
}

package analytic

import (
	"math"

	"vodalloc/internal/dist"
)

// durFn bundles the functionals of a VCR-duration distribution that the
// model needs: the CDF F, its running integral G(x) = ∫₀ˣ F(t) dt, and
// where one exists in closed form the excess mean H(x) = ∫ₓ^∞ (1 − F).
// G appears when the uniform viewer-position integral is evaluated in
// closed form (see the package comment). Closed forms of G are used for
// the families the paper evaluates; any other distribution falls back to
// a dense precomputed grid (G is C¹, so linear interpolation of a fine
// grid is accurate to O(h²)). H turns the pause hit probability into a
// sum over restart periods (pauTerm); it is nil for the families without
// a closed form, which keep the u-quadrature.
type durFn struct {
	F func(x float64) float64
	G func(x float64) float64
	H func(x float64) float64
	// FG evaluates F and G at one point, sharing the subexpressions the
	// closed forms have in common: the Gamma family's G needs P(k) and
	// P(k+1), which dist.IncGammaPair evaluates together (one Exp at
	// integer shapes), and the exponential's F and G share one Expm1.
	// Always returns the same bits as calling F and G separately.
	FG func(x float64) (fx, gx float64)
	// Gl caches G(l) for the construction-time movie length: the movie-end
	// clip branch of clippedMass needs it on every call.
	Gl float64
	l  float64
}

// gl returns G(l), served from the cache when l is the construction-time
// movie length (always, in model evaluation; tests may pass other values).
func (f durFn) gl(l float64) float64 {
	if l == f.l {
		return f.Gl
	}
	return f.G(l)
}

// gridPoints is the resolution of the generic G fallback grid over [0, l].
const gridPoints = 8192

// newDurFn builds the (F, G) pair for d, specializing the families with
// closed-form ∫F. The grid fallback only ever needs G on [0, l]: every
// G argument in the model is clamped to the movie length before use.
func newDurFn(d dist.Distribution, l float64) durFn {
	f := rawDurFn(d, l)
	if f.FG == nil {
		F, G := f.F, f.G
		f.FG = func(x float64) (float64, float64) { return F(x), G(x) }
	}
	f.l = l
	f.Gl = f.G(l)
	return f
}

// rawDurFn builds the family-specific functionals; newDurFn fills in the
// generic FG fallback and the G(l) cache. The lognormal, Weibull and
// Pareto families have a closed-form H but keep the grid G.
func rawDurFn(d dist.Distribution, l float64) durFn {
	F := d.CDF
	switch t := d.(type) {
	case dist.Exponential:
		m := t.Mean()
		return durFn{F: F, G: func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			// ∫₀ˣ (1 − e^{−t/m}) dt = x − m(1 − e^{−x/m}).
			return x + m*math.Expm1(-x/m)
		}, FG: func(x float64) (float64, float64) {
			if x <= 0 {
				return 0, 0
			}
			e := math.Expm1(-x / m)
			return -e, x + m*e
		}, H: t.ExcessMean}
	case dist.Gamma:
		k, th := t.Shape(), t.Scale()
		fg := func(x float64) (float64, float64) {
			if x <= 0 {
				return 0, 0
			}
			// F = P(k, x/θ) and ∫₀ˣ F = x·P(k, x/θ) − kθ·P(k+1, x/θ).
			p, p1 := dist.IncGammaPair(k, x/th)
			return p, x*p - k*th*p1
		}
		return durFn{F: F, G: func(x float64) float64 {
			_, gx := fg(x)
			return gx
		}, FG: fg, H: t.ExcessMean}
	case dist.Uniform:
		lo, hi := t.Support()
		return durFn{F: F, G: func(x float64) float64 {
			switch {
			case x <= lo:
				return 0
			case x >= hi:
				return x - 0.5*(lo+hi)
			default:
				return (x - lo) * (x - lo) / (2 * (hi - lo))
			}
		}, H: t.ExcessMean}
	case dist.Deterministic:
		v := t.Mean()
		return durFn{F: F, G: func(x float64) float64 {
			if x <= v {
				return 0
			}
			return x - v
		}, H: t.ExcessMean}
	case dist.Lognormal:
		return durFn{F: F, G: gridG(d, l), H: t.ExcessMean}
	case dist.Weibull:
		return durFn{F: F, G: gridG(d, l), H: t.ExcessMean}
	case dist.Pareto:
		if math.IsInf(t.Mean(), 1) {
			// α ≤ 1: H is infinite everywhere.
			return durFn{F: F, G: gridG(d, l)}
		}
		return durFn{F: F, G: gridG(d, l), H: t.ExcessMean}
	default:
		return durFn{F: F, G: gridG(d, l)}
	}
}

// gridG precomputes G(x) = ∫₀ˣ F on [0, l] by cumulative trapezoid over a
// uniform grid and returns a linear interpolant. Beyond l it extends with
// the trapezoid of the actual CDF from the last grid point (G' = F ≤ 1),
// though the model never asks for x > l.
func gridG(d dist.Distribution, l float64) func(float64) float64 {
	if !(l > 0) {
		return func(float64) float64 { return 0 }
	}
	h := l / gridPoints
	cum := make([]float64, gridPoints+1)
	prev := d.CDF(0)
	for i := 1; i <= gridPoints; i++ {
		cur := d.CDF(float64(i) * h)
		cum[i] = cum[i-1] + 0.5*(prev+cur)*h
		prev = cur
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		if x >= l {
			return cum[gridPoints] + 0.5*(d.CDF(l)+d.CDF(x))*(x-l)
		}
		pos := x / h
		i := int(pos)
		if i >= gridPoints {
			i = gridPoints - 1
		}
		frac := pos - float64(i)
		return cum[i] + frac*(cum[i+1]-cum[i])
	}
}

// clippedMass computes ∫₀ˡ [F(min(b,c)) − F(min(a,c))] dc for 0 ≤ a ≤ b:
// the closed-form unconditioning of a hit interval [a, b] over a uniform
// clip boundary c ~ U[0, l] (times l). This single function realizes the
// paper's case (a)/(b) split (complete vs. partial hits, Eqs. 4–18): the
// clip c plays the role of the catch-up horizon.
func (f durFn) clippedMass(a, b, l float64) float64 {
	if a < 0 {
		a = 0
	}
	fa, ga := f.FG(a)
	return f.clippedMassAt(a, b, l, fa, ga)
}

// clippedMassAt is clippedMass with F(a) and G(a) supplied by the caller
// — the model's integrands already evaluate them for their tail-stop
// checks, so the hot loops avoid recomputing the most expensive terms.
// a must be pre-clamped to ≥ 0.
func (f durFn) clippedMassAt(a, b, l, fa, ga float64) float64 {
	if b <= a || a >= l {
		return 0
	}
	if b >= l {
		// ∫_a^l (F(c) − F(a)) dc
		return f.gl(l) - ga - (l-a)*fa
	}
	// ∫_a^b (F(c) − F(a)) dc + (l − b)(F(b) − F(a))
	fb, gb := f.FG(b)
	return gb - ga - (b-a)*fa + (l-b)*(fb-fa)
}

// mass returns the unclipped probability F(b) − F(a) of the interval,
// clamped to [0, 1].
func (f durFn) mass(a, b float64) float64 {
	if a < 0 {
		a = 0
	}
	return f.massAt(a, b, f.F(a))
}

// massAt is mass with F(a) precomputed; a must be pre-clamped to ≥ 0.
func (f durFn) massAt(a, b, fa float64) float64 {
	if b <= a {
		return 0
	}
	p := f.F(b) - fa
	if p < 0 {
		return 0
	}
	return p
}

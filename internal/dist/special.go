package dist

import "math"

// Special functions needed by the gamma family: the regularized lower
// incomplete gamma function P(a, x) and its complement Q(a, x).
//
// Integer shapes a = k ≤ maxIntShape — the paper's Gamma(2, 4) needs
// k = 2, and the running integral of its CDF k = 3 — use the Poisson
// sums
//
//	Q(k, x) = e^{−x}·Σ_{j<k} x^j/j!,   P(k, x) = e^{−x}·Σ_{j≥k} x^j/j!,
//
// the finite one for x ≥ k+1 and the series below it. Every term is
// positive, and one Exp is the only transcendental call. Every other
// shape follows the classic series / continued-fraction split (Numerical
// Recipes §6.2): the series converges fast for x < a+1, the Lentz
// continued fraction for x >= a+1.

const (
	gammaEps     = 1e-14
	gammaItMax   = 500
	gammaFPMin   = 1e-300
	gammaTinyDen = 1e-300

	// maxIntShape is the largest integer shape the Poisson sums serve.
	maxIntShape = 32
	// maxIntX is the largest argument the Poisson sums serve: e^{−x}
	// leaves the normal float64 range just past 708, where the general
	// path's log-domain prefactor takes over (and x^j cannot overflow).
	maxIntX = 700
)

// MaxGammaShape is the largest shape NewGamma accepts. Near x ≈ a the
// series and the continued fraction need O(√a) iterations (gammaIters),
// so the bound keeps one CDF evaluation under about a millisecond. It
// corresponds to a coefficient of variation of 1e-4, a duration fixed
// to four digits, which det:v models exactly.
const MaxGammaShape = 1e8

// gammaIters bounds the series and continued-fraction loops at shape a.
// Near x ≈ a their terms decay like e^{−n²/2a}: the series needs about
// 7.5·√a terms to reach gammaEps, the continued fraction fewer. Small
// shapes converge well inside the gammaItMax floor.
func gammaIters(a float64) int {
	return gammaItMax + int(10*math.Sqrt(a))
}

// regIncGammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
func regIncGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	case intShape(a, x):
		v, _, upper := gammaIntPair(a, x)
		if upper {
			return 1 - v
		}
		return v
	case x < a+1:
		return gammaSeriesP(a, x)
	default:
		return 1 - gammaCFQ(a, x)
	}
}

// regIncGammaQ returns Q(a, x) = 1 − P(a, x).
func regIncGammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case math.IsInf(x, 1):
		return 0
	case intShape(a, x):
		v, _, upper := gammaIntPair(a, x)
		if upper {
			return v
		}
		return 1 - v
	case x < a+1:
		return 1 - gammaSeriesP(a, x)
	default:
		return gammaCFQ(a, x)
	}
}

// IncGammaPair returns the regularized lower incomplete gammas P(a, x)
// and P(a+1, x): the CDFs of Gamma(a, θ) and Gamma(a+1, θ) at x·θ, the
// pair the running integral of a gamma CDF needs. At the integer shapes
// the Poisson sums serve, both come from one e^{−x}; elsewhere they are
// two separate evaluations. P(a, x) has the same bits as Gamma.CDF.
func IncGammaPair(a, x float64) (p, p1 float64) {
	if x > 0 && intShape(a, x) {
		v, v1, upper := gammaIntPair(a, x)
		if upper {
			return 1 - v, 1 - v1
		}
		return v, v1
	}
	return regIncGammaP(a, x), regIncGammaP(a+1, x)
}

// incGammaQPair returns the regularized upper incomplete gammas Q(a, x)
// and Q(a+1, x) for x > 0. Where the Poisson sums serve a, both come from
// one e^{−x}; elsewhere they are two evaluations of regIncGammaQ. Either
// way Q is summed directly wherever it is small, never taken as 1 − P.
func incGammaQPair(a, x float64) (q, q1 float64) {
	if intShape(a, x) {
		v, v1, upper := gammaIntPair(a, x)
		if upper {
			return v, v1
		}
		return 1 - v, 1 - v1
	}
	return regIncGammaQ(a, x), regIncGammaQ(a+1, x)
}

// intShape reports whether the Poisson sums serve P(a, x) for x > 0: a
// is a whole number in [1, maxIntShape] and x at most maxIntX.
func intShape(a, x float64) bool {
	return a >= 1 && a <= maxIntShape && a == math.Trunc(a) && x <= maxIntX
}

// gammaIntPair evaluates the Poisson sums at the integer shapes k and k+1
// from one e^{−x}; intShape(k, x) must hold. For x ≥ k+1 it returns
// upper = true with Q(k, x) and Q(k+1, x), below it P(k, x) and
// P(k+1, x): whichever side of the split is summed directly.
func gammaIntPair(k, x float64) (v, v1 float64, upper bool) {
	ex := math.Exp(-x)
	if x >= k+1 {
		// Σ_{j<k} x^j/j!, then its next term x^k/k! for Q(k+1, x).
		term, sum := 1.0, 1.0
		for j := 1.0; j < k; j++ {
			term *= x / j
			sum += term
		}
		term *= x / k
		return ex * sum, ex * (sum + term), true
	}
	// The series Σ_{j>k} x^j/j! gives P(k+1, x); adding its leading term
	// x^k/k! gives P(k, x). This is the general series with the prefactor
	// e^{−x}·x^k/(k−1)! in place of exp(−x + k·ln x − lnΓ(k)).
	lead := 1.0
	for j := 1.0; j <= k; j++ {
		lead *= x / j
	}
	del := lead * x / (k + 1)
	rest := del
	for n := k + 2; n < k+2+gammaItMax; n++ {
		del *= x / n
		rest += del
		if del <= rest*gammaEps {
			break
		}
	}
	return ex * (lead + rest), ex * rest, false
}

// gammaSeriesP evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeriesP(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i, n := 0, gammaIters(a); i < n; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	v := sum * math.Exp(-x+a*math.Log(x)-lg)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// gammaCFQ evaluates Q(a,x) by the Lentz continued fraction, valid for
// x >= a+1.
func gammaCFQ(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i, n := 1, gammaIters(a); i <= n; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaTinyDen {
			d = gammaTinyDen
		}
		c = b + an/c
		if math.Abs(c) < gammaTinyDen {
			c = gammaTinyDen
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	v := math.Exp(-x+a*math.Log(x)-lg) * h
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

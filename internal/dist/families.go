package dist

import (
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with the given Mean
// (i.e. rate 1/Mean). The paper uses it for VCR durations of movies 2 and 3
// in Example 1 and for viewer interarrival times throughout §4.
type Exponential struct {
	mean float64
}

// NewExponential returns an exponential distribution with the given mean.
func NewExponential(mean float64) (Exponential, error) {
	if !(mean > 0) || math.IsInf(mean, 0) {
		return Exponential{}, badParam("exponential mean %v must be positive and finite", mean)
	}
	return Exponential{mean: mean}, nil
}

// MustExponential is NewExponential that panics on invalid parameters;
// intended for package-level defaults and tests.
func MustExponential(mean float64) Exponential {
	d, err := NewExponential(mean)
	if err != nil {
		panic(err)
	}
	return d
}

func (d Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Exp(-x/d.mean) / d.mean
}

func (d Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x / d.mean)
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F),
// here m·e^{−x/m} for x ≥ 0.
func (d Exponential) ExcessMean(x float64) float64 {
	if x <= 0 {
		return d.mean - x
	}
	return d.mean * math.Exp(-x/d.mean)
}

func (d Exponential) Mean() float64     { return d.mean }
func (d Exponential) Variance() float64 { return d.mean * d.mean }

func (d Exponential) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 1:
		return math.Inf(1)
	default:
		return -d.mean * math.Log1p(-p)
	}
}

func (d Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * d.mean
}

func (d Exponential) Support() (float64, float64) { return 0, math.Inf(1) }

// Gamma is the gamma distribution with the given Shape (k) and Scale (θ).
// The paper's "skewed gamma with mean = 8 minutes (α = 2, γ = 4)" is
// Gamma{Shape: 2, Scale: 4}.
type Gamma struct {
	shape, scale float64
}

// NewGamma returns a gamma distribution with the given shape and scale.
// The shape must be at most MaxGammaShape.
func NewGamma(shape, scale float64) (Gamma, error) {
	if !(shape > 0) || !(scale > 0) || math.IsInf(shape, 0) || math.IsInf(scale, 0) {
		return Gamma{}, badParam("gamma shape %v and scale %v must be positive and finite", shape, scale)
	}
	if shape > MaxGammaShape {
		return Gamma{}, badParam("gamma shape %v exceeds the largest supported shape %g", shape, float64(MaxGammaShape))
	}
	return Gamma{shape: shape, scale: scale}, nil
}

// MustGamma is NewGamma that panics on invalid parameters.
func MustGamma(shape, scale float64) Gamma {
	d, err := NewGamma(shape, scale)
	if err != nil {
		panic(err)
	}
	return d
}

// Shape returns the shape parameter k.
func (d Gamma) Shape() float64 { return d.shape }

// Scale returns the scale parameter θ.
func (d Gamma) Scale() float64 { return d.scale }

func (d Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.shape < 1:
			return math.Inf(1)
		case d.shape == 1:
			return 1 / d.scale
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(d.shape)
	return math.Exp((d.shape-1)*math.Log(x) - x/d.scale - lg - d.shape*math.Log(d.scale))
}

func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaP(d.shape, x/d.scale)
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F),
// here kθ·Q(k+1, x/θ) − x·Q(k, x/θ). Q is computed as the upper tail
// itself, not as 1 − P, so H keeps its digits far out in the tail.
func (d Gamma) ExcessMean(x float64) float64 {
	if x <= 0 {
		return d.Mean() - x
	}
	q, q1 := incGammaQPair(d.shape, x/d.scale)
	return d.shape*d.scale*q1 - x*q
}

func (d Gamma) Mean() float64     { return d.shape * d.scale }
func (d Gamma) Variance() float64 { return d.shape * d.scale * d.scale }

// Sample draws a gamma variate with the Marsaglia–Tsang squeeze method
// (boosted to shape >= 1 with the standard power transform).
func (d Gamma) Sample(rng *rand.Rand) float64 {
	k := d.shape
	boost := 1.0
	if k < 1 {
		// X_k = X_{k+1} · U^{1/k}
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	dd := k - 1.0/3
	c := 1 / math.Sqrt(9*dd)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * dd * v * d.scale
		}
		if math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v * d.scale
		}
	}
}

func (d Gamma) Support() (float64, float64) { return 0, math.Inf(1) }

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	a, b float64
}

// NewUniform returns a uniform distribution on [a, b], a < b.
func NewUniform(a, b float64) (Uniform, error) {
	if !(a < b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return Uniform{}, badParam("uniform bounds [%v, %v] must be finite with a < b", a, b)
	}
	return Uniform{a: a, b: b}, nil
}

// MustUniform is NewUniform that panics on invalid parameters.
func MustUniform(a, b float64) Uniform {
	d, err := NewUniform(a, b)
	if err != nil {
		panic(err)
	}
	return d
}

func (d Uniform) PDF(x float64) float64 {
	if x < d.a || x > d.b {
		return 0
	}
	return 1 / (d.b - d.a)
}

func (d Uniform) CDF(x float64) float64 {
	switch {
	case x <= d.a:
		return 0
	case x >= d.b:
		return 1
	default:
		return (x - d.a) / (d.b - d.a)
	}
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F):
// (a+b)/2 − x below a, (b − x)²/(2(b − a)) inside [a, b], 0 above.
func (d Uniform) ExcessMean(x float64) float64 {
	switch {
	case x <= d.a:
		return d.Mean() - x
	case x >= d.b:
		return 0
	default:
		return (d.b - x) * (d.b - x) / (2 * (d.b - d.a))
	}
}

func (d Uniform) Mean() float64 { return 0.5 * (d.a + d.b) }
func (d Uniform) Variance() float64 {
	w := d.b - d.a
	return w * w / 12
}

func (d Uniform) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return d.a + p*(d.b-d.a)
}

func (d Uniform) Sample(rng *rand.Rand) float64 {
	return d.a + rng.Float64()*(d.b-d.a)
}

func (d Uniform) Support() (float64, float64) { return d.a, d.b }

// Deterministic is the degenerate distribution concentrated at Value.
// Useful for worst-case analyses ("every FF lasts exactly x minutes") and
// for failure-injection tests.
type Deterministic struct {
	value float64
}

// NewDeterministic returns a point mass at v (v must be finite).
func NewDeterministic(v float64) (Deterministic, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Deterministic{}, badParam("deterministic value %v must be finite", v)
	}
	return Deterministic{value: v}, nil
}

// MustDeterministic is NewDeterministic that panics on invalid parameters.
func MustDeterministic(v float64) Deterministic {
	d, err := NewDeterministic(v)
	if err != nil {
		panic(err)
	}
	return d
}

// PDF reports 0 everywhere; the point mass has no density. Callers that
// need mass accounting should use CDF differences (Prob), which this type
// supports exactly.
func (d Deterministic) PDF(x float64) float64 { return 0 }

func (d Deterministic) CDF(x float64) float64 {
	if x < d.value {
		return 0
	}
	return 1
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = max(v − x, 0).
func (d Deterministic) ExcessMean(x float64) float64 {
	return math.Max(d.value-x, 0)
}

func (d Deterministic) Mean() float64     { return d.value }
func (d Deterministic) Variance() float64 { return 0 }

func (d Deterministic) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return d.value
}

func (d Deterministic) Sample(*rand.Rand) float64 { return d.value }

func (d Deterministic) Support() (float64, float64) { return d.value, d.value }

// Weibull is the Weibull distribution with shape K and scale Lambda;
// included for heavy-/light-tailed sensitivity studies of VCR behaviour.
type Weibull struct {
	k, lambda float64
}

// NewWeibull returns a Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if !(shape > 0) || !(scale > 0) || math.IsInf(shape, 0) || math.IsInf(scale, 0) {
		return Weibull{}, badParam("weibull shape %v and scale %v must be positive and finite", shape, scale)
	}
	return Weibull{k: shape, lambda: scale}, nil
}

// MustWeibull is NewWeibull that panics on invalid parameters.
func MustWeibull(shape, scale float64) Weibull {
	d, err := NewWeibull(shape, scale)
	if err != nil {
		panic(err)
	}
	return d
}

func (d Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.k < 1:
			return math.Inf(1)
		case d.k == 1:
			return 1 / d.lambda
		default:
			return 0
		}
	}
	z := x / d.lambda
	return d.k / d.lambda * math.Pow(z, d.k-1) * math.Exp(-math.Pow(z, d.k))
}

func (d Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/d.lambda, d.k))
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F).
// With z = (x/λ)^k it is λΓ(1+1/k)·Q(1+1/k, z) − x·e^{−z}, which the
// recurrence Q(a+1, z) = Q(a, z) + z^a·e^{−z}/Γ(a+1) turns into the single
// term λΓ(1+1/k)·Q(1/k, z): no difference to cancel in the tail.
func (d Weibull) ExcessMean(x float64) float64 {
	if x <= 0 {
		return d.Mean() - x
	}
	return d.Mean() * regIncGammaQ(1/d.k, math.Pow(x/d.lambda, d.k))
}

func (d Weibull) Mean() float64 {
	return d.lambda * math.Gamma(1+1/d.k)
}

func (d Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/d.k)
	g2 := math.Gamma(1 + 2/d.k)
	return d.lambda * d.lambda * (g2 - g1*g1)
}

func (d Weibull) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 1:
		return math.Inf(1)
	default:
		return d.lambda * math.Pow(-math.Log1p(-p), 1/d.k)
	}
}

func (d Weibull) Sample(rng *rand.Rand) float64 {
	return d.Quantile(rng.Float64())
}

func (d Weibull) Support() (float64, float64) { return 0, math.Inf(1) }

// GammaFromMoments builds a gamma distribution with the given mean and
// coefficient of variation cv = stddev/mean: shape = 1/cv², scale =
// mean·cv². The natural constructor when matching measured VCR
// durations (the paper's "obtained by statistics"). The shape bound
// MaxGammaShape makes cv = 1e-4 the smallest accepted.
func GammaFromMoments(mean, cv float64) (Gamma, error) {
	if !(mean > 0) || !(cv > 0) {
		return Gamma{}, badParam("gamma mean %v and cv %v must be positive", mean, cv)
	}
	return NewGamma(1/(cv*cv), mean*cv*cv)
}

package dist

import (
	"math"
	"math/rand"
)

// Lognormal is the log-normal distribution with location Mu and scale
// Sigma of the underlying normal. Useful as a realistic heavy-ish-tailed
// model of pause durations (short fiddles mixed with long breaks).
type Lognormal struct {
	mu, sigma float64
}

// NewLognormal returns a log-normal distribution with the given
// underlying normal location and scale.
func NewLognormal(mu, sigma float64) (Lognormal, error) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) || !(sigma > 0) || math.IsInf(sigma, 0) {
		return Lognormal{}, badParam("lognormal mu %v, sigma %v", mu, sigma)
	}
	return Lognormal{mu: mu, sigma: sigma}, nil
}

// MustLognormal is NewLognormal that panics on invalid parameters.
func MustLognormal(mu, sigma float64) Lognormal {
	d, err := NewLognormal(mu, sigma)
	if err != nil {
		panic(err)
	}
	return d
}

// LognormalFromMoments builds a log-normal with the given mean and
// coefficient of variation cv = stddev/mean — the natural way to match
// measured VCR behaviour.
func LognormalFromMoments(mean, cv float64) (Lognormal, error) {
	if !(mean > 0) || !(cv > 0) {
		return Lognormal{}, badParam("lognormal mean %v, cv %v must be positive", mean, cv)
	}
	s2 := math.Log(1 + cv*cv)
	return NewLognormal(math.Log(mean)-s2/2, math.Sqrt(s2))
}

func (d Lognormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - d.mu) / d.sigma
	return math.Exp(-0.5*z*z) / (x * d.sigma * math.Sqrt(2*math.Pi))
}

func (d Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-d.mu)/(d.sigma*math.Sqrt2))
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F),
// here e^{μ+σ²/2}·Φ(d₁) − x·Φ(d₂) with d₂ = (μ − ln x)/σ, d₁ = d₂ + σ.
func (d Lognormal) ExcessMean(x float64) float64 {
	if x <= 0 {
		return d.Mean() - x
	}
	d2 := (d.mu - math.Log(x)) / d.sigma
	return d.Mean()*normalCDF(d2+d.sigma) - x*normalCDF(d2)
}

// normalCDF is the standard normal CDF Φ(z) = erfc(−z/√2)/2.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

func (d Lognormal) Mean() float64 {
	return math.Exp(d.mu + d.sigma*d.sigma/2)
}

func (d Lognormal) Variance() float64 {
	s2 := d.sigma * d.sigma
	return (math.Exp(s2) - 1) * math.Exp(2*d.mu+s2)
}

func (d Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.mu + d.sigma*rng.NormFloat64())
}

func (d Lognormal) Support() (float64, float64) { return 0, math.Inf(1) }

// Pareto is the Pareto (type I) distribution with minimum Xm and tail
// index Alpha: P(X > x) = (xm/x)^α for x ≥ xm. A genuinely heavy tail
// for stress-testing the model's treatment of very long VCR operations.
type Pareto struct {
	xm, alpha float64
}

// NewPareto returns a Pareto distribution with minimum xm and tail
// index alpha.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if !(xm > 0) || !(alpha > 0) || math.IsInf(xm, 0) || math.IsInf(alpha, 0) {
		return Pareto{}, badParam("pareto xm %v, alpha %v must be positive", xm, alpha)
	}
	return Pareto{xm: xm, alpha: alpha}, nil
}

// MustPareto is NewPareto that panics on invalid parameters.
func MustPareto(xm, alpha float64) Pareto {
	d, err := NewPareto(xm, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

func (d Pareto) PDF(x float64) float64 {
	if x < d.xm {
		return 0
	}
	return d.alpha * math.Pow(d.xm, d.alpha) / math.Pow(x, d.alpha+1)
}

func (d Pareto) CDF(x float64) float64 {
	if x <= d.xm {
		return 0
	}
	return 1 - math.Pow(d.xm/x, d.alpha)
}

// ExcessMean returns the excess mean H(x) = E[(X − x)⁺] = ∫ₓ^∞ (1 − F):
// E[X] − x below xm and x·(xm/x)^α/(α − 1) above it. For alpha ≤ 1 the
// mean, and so H, is +Inf: no finite closed form.
func (d Pareto) ExcessMean(x float64) float64 {
	if d.alpha <= 1 {
		return math.Inf(1)
	}
	if x <= d.xm {
		return d.Mean() - x
	}
	return x * math.Pow(d.xm/x, d.alpha) / (d.alpha - 1)
}

// Mean returns +Inf for alpha ≤ 1.
func (d Pareto) Mean() float64 {
	if d.alpha <= 1 {
		return math.Inf(1)
	}
	return d.alpha * d.xm / (d.alpha - 1)
}

// Variance returns +Inf for alpha ≤ 2.
func (d Pareto) Variance() float64 {
	if d.alpha <= 2 {
		return math.Inf(1)
	}
	a := d.alpha
	return d.xm * d.xm * a / ((a - 1) * (a - 1) * (a - 2))
}

func (d Pareto) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 1:
		return math.Inf(1)
	default:
		return d.xm / math.Pow(1-p, 1/d.alpha)
	}
}

func (d Pareto) Sample(rng *rand.Rand) float64 {
	return d.Quantile(rng.Float64())
}

func (d Pareto) Support() (float64, float64) { return d.xm, math.Inf(1) }

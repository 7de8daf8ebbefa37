// Package metrics provides the output-analysis statistics used by the VOD
// simulator: streaming mean/variance accumulators, binomial proportion
// estimators with confidence intervals, time-weighted averages for
// occupancy processes, and fixed-width histograms.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// z95 is the two-sided 95% normal quantile used for confidence intervals.
const z95 = 1.959963984540054

// Welford accumulates a sample mean and variance in one pass using
// Welford's online algorithm; numerically stable for long runs.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return z95 * w.StdDev() / math.Sqrt(float64(w.n))
}

// Merge folds another accumulator into w (parallel-runs combination).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	d := o.mean - w.mean
	tot := n1 + n2
	w.mean += d * n2 / tot
	w.m2 += o.m2 + d*d*n1*n2/tot
	w.n += o.n
}

// AddBatch folds a pre-aggregated batch of n observations with the
// given mean and centered sum of squares (n·variance) into the
// accumulator, as if each had been Added individually. The fluid
// engine uses it to account whole Poisson cohorts of waits — the
// batch moments are closed-form — without touching per-sample loops.
func (w *Welford) AddBatch(n uint64, mean, m2 float64) {
	w.Merge(Welford{n: n, mean: mean, m2: m2})
}

// Proportion estimates a Bernoulli success probability with a Wilson
// score confidence interval (robust near 0 and 1, where the simulator's
// hit probabilities often live).
type Proportion struct {
	successes, trials uint64
}

// NewProportion rebuilds a proportion from its counts, as persisted by
// a checkpoint journal; successes is clamped to trials so corrupt
// counts cannot produce an estimate above 1.
func NewProportion(successes, trials uint64) Proportion {
	if successes > trials {
		successes = trials
	}
	return Proportion{successes: successes, trials: trials}
}

// Observe records one trial.
func (p *Proportion) Observe(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// N returns the number of trials.
func (p *Proportion) N() uint64 { return p.trials }

// Successes returns the number of successes.
func (p *Proportion) Successes() uint64 { return p.successes }

// Estimate returns the sample proportion (0 with no trials).
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Wilson95 returns the Wilson score 95% interval for the proportion.
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.trials == 0 {
		return 0, 1
	}
	n := float64(p.trials)
	ph := p.Estimate()
	z2 := z95 * z95
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z95 / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}

// Merge folds another proportion accumulator into p.
func (p *Proportion) Merge(o Proportion) {
	p.successes += o.successes
	p.trials += o.trials
}

// TimeWeighted tracks the time average of a piecewise-constant process,
// e.g. the number of busy I/O streams or resident buffer minutes.
type TimeWeighted struct {
	start, last float64
	value       float64
	area        float64
	max         float64
	started     bool
}

// Set records that the process takes value v from time now onward.
func (tw *TimeWeighted) Set(now, v float64) {
	if !tw.started {
		tw.start, tw.last, tw.value, tw.max, tw.started = now, now, v, v, true
		return
	}
	tw.area += tw.value * (now - tw.last)
	tw.last = now
	tw.value = v
	if v > tw.max {
		tw.max = v
	}
}

// Add shifts the current value by delta at time now.
func (tw *TimeWeighted) Add(now, delta float64) {
	tw.Set(now, tw.value+delta)
}

// Value returns the current value of the process.
func (tw *TimeWeighted) Value() float64 { return tw.value }

// Max returns the maximum value observed.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Average returns the time average over [start, now].
func (tw *TimeWeighted) Average(now float64) float64 {
	if !tw.started || now <= tw.start {
		return tw.value
	}
	area := tw.area + tw.value*(now-tw.last)
	return area / (now - tw.start)
}

// Histogram is a fixed-width histogram over [Lo, Hi) with overflow and
// underflow buckets.
type Histogram struct {
	lo, hi  float64
	buckets []uint64
	under   uint64
	over    uint64
	count   uint64
	sum     float64
}

// NewHistogram creates a histogram with n buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if !(lo < hi) || n < 1 {
		return nil, fmt.Errorf("metrics: invalid histogram [%v, %v) with %d buckets", lo, hi, n)
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]uint64, n)}, nil
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	h.count++
	h.sum += x
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.buckets)))
		if i >= len(h.buckets) { // guards x just below hi rounding up
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the running mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile estimated from bucket midpoints.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	if h.under > 0 {
		acc += h.under
		if acc >= target {
			return h.lo
		}
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			return h.lo + (float64(i)+0.5)*width
		}
	}
	return h.hi
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist[%g,%g) n=%d mean=%.3f", h.lo, h.hi, h.count, h.Mean())
	return b.String()
}

// Percentile returns the p-th percentile of the given sample slice
// (nearest-rank); it sorts a copy and is intended for end-of-run
// reporting, not hot paths.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	rank := int(math.Ceil(p/100*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c) {
		rank = len(c) - 1
	}
	return c[rank]
}

// Reservoir maintains a fixed-size uniform random sample of a stream
// (Vitter's algorithm R) so end-of-run quantiles of unbounded series —
// per-viewer waits, resume positions — stay memory-bounded.
type Reservoir struct {
	sample []float64
	cap    int
	seen   uint64
	rng    *rand.Rand
}

// NewReservoir creates a reservoir keeping up to capacity samples,
// seeded deterministically for reproducible runs.
func NewReservoir(capacity int, seed int64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("metrics: reservoir capacity %d", capacity)
	}
	return &Reservoir{
		sample: make([]float64, 0, capacity),
		cap:    capacity,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Observe offers one value to the reservoir.
func (r *Reservoir) Observe(x float64) {
	r.seen++
	if len(r.sample) < r.cap {
		r.sample = append(r.sample, x)
		return
	}
	if j := r.rng.Int63n(int64(r.seen)); j < int64(r.cap) {
		r.sample[j] = x
	}
}

// Seen returns how many values were offered.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Len returns the current sample size.
func (r *Reservoir) Len() int { return len(r.sample) }

// Quantile estimates the q-quantile from the retained sample.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.sample) == 0 {
		return math.NaN()
	}
	return Percentile(r.sample, q*100)
}

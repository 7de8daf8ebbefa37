package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirectComputation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n = %d want 8", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g want 5", w.Mean())
	}
	// Direct unbiased variance: Σ(x−5)²/7 = 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g want %g", w.Variance(), 32.0/7)
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev wrong")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty accumulator should be zero")
	}
	if !math.IsInf(w.CI95(), 1) {
		t.Error("CI of empty accumulator should be infinite")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Error("single observation")
	}
}

func TestWelfordCI95Coverage(t *testing.T) {
	// The 95% CI should cover the true mean ~95% of the time.
	rng := rand.New(rand.NewSource(1))
	covered := 0
	const reps = 400
	for r := 0; r < reps; r++ {
		var w Welford
		for i := 0; i < 200; i++ {
			w.Add(rng.NormFloat64()*2 + 10)
		}
		if math.Abs(w.Mean()-10) <= w.CI95() {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("CI coverage %.3f outside [0.90, 0.99]", rate)
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.ExpFloat64()
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged n = %d want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Errorf("merged mean %g want %g", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Errorf("merged variance %g want %g", a.Variance(), all.Variance())
	}
	// Merging into empty copies.
	var empty Welford
	empty.Merge(all)
	if empty.Mean() != all.Mean() || empty.N() != all.N() {
		t.Error("merge into empty should copy")
	}
	before := all
	all.Merge(Welford{})
	if all != before {
		t.Error("merging empty should be a no-op")
	}
}

func TestProportionBasics(t *testing.T) {
	var p Proportion
	lo, hi := p.Wilson95()
	if lo != 0 || hi != 1 {
		t.Error("empty proportion interval should be [0,1]")
	}
	for i := 0; i < 100; i++ {
		p.Observe(i < 30)
	}
	if p.N() != 100 || p.Successes() != 30 {
		t.Fatalf("counts wrong: %d/%d", p.Successes(), p.N())
	}
	if math.Abs(p.Estimate()-0.3) > 1e-12 {
		t.Errorf("estimate %g want 0.3", p.Estimate())
	}
	lo, hi = p.Wilson95()
	if !(lo < 0.3 && 0.3 < hi) {
		t.Errorf("interval [%g, %g] should straddle 0.3", lo, hi)
	}
	if lo < 0.2 || hi > 0.42 {
		t.Errorf("interval [%g, %g] too wide for n=100", lo, hi)
	}
}

func TestProportionWilsonEdge(t *testing.T) {
	var p Proportion
	for i := 0; i < 50; i++ {
		p.Observe(true)
	}
	lo, hi := p.Wilson95()
	if hi != 1 {
		t.Errorf("all-success hi = %g want 1", hi)
	}
	if lo < 0.9 {
		t.Errorf("all-success lo = %g suspiciously low", lo)
	}
	var q Proportion
	for i := 0; i < 50; i++ {
		q.Observe(false)
	}
	lo, _ = q.Wilson95()
	if lo != 0 {
		t.Errorf("all-failure lo = %g want 0", lo)
	}
}

func TestProportionMerge(t *testing.T) {
	var a, b Proportion
	a.Observe(true)
	a.Observe(false)
	b.Observe(true)
	a.Merge(b)
	if a.N() != 3 || a.Successes() != 2 {
		t.Errorf("merge wrong: %d/%d", a.Successes(), a.N())
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 2)  // value 2 on [0, 10)
	tw.Set(10, 6) // value 6 on [10, 20)
	tw.Set(20, 0) // value 0 on [20, 40)
	got := tw.Average(40)
	want := (2*10 + 6*10 + 0*20) / 40.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("average %g want %g", got, want)
	}
	if tw.Max() != 6 {
		t.Errorf("max %g want 6", tw.Max())
	}
	if tw.Value() != 0 {
		t.Errorf("value %g want 0", tw.Value())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Add(5, +3)
	tw.Add(10, -1)
	if tw.Value() != 2 {
		t.Errorf("value %g want 2", tw.Value())
	}
	want := (0*5 + 3*5) / 10.0
	if math.Abs(tw.Average(10)-want) > 1e-12 {
		t.Errorf("average %g want %g", tw.Average(10), want)
	}
}

func TestTimeWeightedBeforeStart(t *testing.T) {
	var tw TimeWeighted
	if tw.Average(5) != 0 {
		t.Error("unstarted average should be 0")
	}
	tw.Set(10, 4)
	if tw.Average(10) != 4 {
		t.Error("zero-length window returns current value")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 10) // 0.0 .. 9.9 uniformly
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Mean()-4.95) > 1e-9 {
		t.Errorf("mean %g want 4.95", h.Mean())
	}
	q := h.Quantile(0.5)
	if q < 4 || q > 6 {
		t.Errorf("median %g want ≈5", q)
	}
	// Overflow/underflow.
	h.Observe(-5)
	h.Observe(100)
	if h.under != 1 || h.over != 1 {
		t.Errorf("under=%d over=%d want 1,1", h.under, h.over)
	}
	if h.Quantile(0.0001) != 0 { // underflow bucket reports lo
		t.Errorf("low quantile should clamp to lo")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(5, 5, 10); err == nil {
		t.Error("empty range must fail")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero buckets must fail")
	}
	h, _ := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g want 5", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %g want 10", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g want 1", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Error("Percentile mutated its input")
	}
}

// Property: Welford matches two-pass mean/variance on random data.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64()*5 + 3
			sum += xs[i]
			w.Add(xs[i])
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-v) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: time-weighted average always lies within [min, max] of the
// values set.
func TestPropertyTimeWeightedBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tw TimeWeighted
		now := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 20; i++ {
			v := rng.Float64() * 50
			tw.Set(now, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			now += rng.Float64() * 5
		}
		avg := tw.Average(now)
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReservoirUniformSampling(t *testing.T) {
	r, err := NewReservoir(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0..99999; the retained sample's mean should approximate the
	// stream mean and quantiles the stream quantiles.
	const n = 100000
	for i := 0; i < n; i++ {
		r.Observe(float64(i))
	}
	if r.Seen() != n || r.Len() != 1000 {
		t.Fatalf("seen=%d len=%d", r.Seen(), r.Len())
	}
	if q := r.Quantile(0.5); math.Abs(q-n/2) > n*0.06 {
		t.Errorf("median %.0f want ≈%d", q, n/2)
	}
	if q := r.Quantile(0.9); math.Abs(q-0.9*n) > n*0.06 {
		t.Errorf("p90 %.0f want ≈%d", q, int(0.9*n))
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r, _ := NewReservoir(100, 2)
	for i := 0; i < 10; i++ {
		r.Observe(float64(i))
	}
	if r.Len() != 10 {
		t.Errorf("len %d want 10 (below capacity keeps everything)", r.Len())
	}
	if q := r.Quantile(1); q != 9 {
		t.Errorf("max %g want 9", q)
	}
	empty, _ := NewReservoir(4, 3)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty reservoir quantile should be NaN")
	}
	if _, err := NewReservoir(0, 1); err == nil {
		t.Error("zero capacity must fail")
	}
}

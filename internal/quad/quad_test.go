package quad

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestAdaptiveAgainstKnownIntegrals(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		a, b float64
		want float64
	}{
		{"sin", math.Sin, 0, math.Pi, 2},
		{"exp", math.Exp, 0, 1, math.E - 1},
		{"inv1px2", func(x float64) float64 { return 1 / (1 + x*x) }, 0, 1, math.Pi / 4},
		{"sqrt", math.Sqrt, 0, 4, 16.0 / 3},
		{"gauss", func(x float64) float64 { return math.Exp(-x * x) }, -6, 6, math.Sqrt(math.Pi)},
	}
	for _, c := range cases {
		got, err := Adaptive(c.f, c.a, c.b, 1e-11)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !almostEqual(got, c.want, 1e-8) {
			t.Errorf("%s: Adaptive=%.12g want %.12g", c.name, got, c.want)
		}
	}
}

func TestAdaptiveReversedInterval(t *testing.T) {
	got, err := Adaptive(math.Sin, math.Pi, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, -2, 1e-8) {
		t.Errorf("reversed: got %g want -2", got)
	}
}

func TestAdaptiveDegenerateInterval(t *testing.T) {
	got, err := Adaptive(math.Exp, 1.5, 1.5, 0)
	if err != nil || got != 0 {
		t.Errorf("degenerate: got %g, %v; want 0, nil", got, err)
	}
}

func TestAdaptiveInvalidBounds(t *testing.T) {
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Adaptive(math.Exp, 0, b, 0); err != ErrInvalidInterval {
			t.Errorf("bound %v: want ErrInvalidInterval, got %v", b, err)
		}
	}
}

func TestAdaptiveKinkedIntegrand(t *testing.T) {
	// |x - 1/3| over [0,1]: kink off the sample grid. Integral =
	// (1/3)^2/2 + (2/3)^2/2 = 5/18.
	f := func(x float64) float64 { return math.Abs(x - 1.0/3) }
	got, err := Adaptive(f, 0, 1, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5.0/18, 1e-7) {
		t.Errorf("kink: got %.12g want %.12g", got, 5.0/18)
	}
}

func TestAdaptivePathologicalDepthBound(t *testing.T) {
	// A discontinuous integrand exercises the depth bound without hanging.
	step := func(x float64) float64 {
		if x < math.Pi/10 {
			return 0
		}
		return 1
	}
	got, err := Adaptive(step, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pi/10
	if !almostEqual(got, want, 1e-5) {
		t.Errorf("step: got %.9g want %.9g", got, want)
	}
}

func TestGauss20HighDegreeExactness(t *testing.T) {
	// One panel of the 20-point Gauss rule is exact through degree 39.
	f := func(x float64) float64 { return math.Pow(x, 19) }
	got := GaussPanels(f, 0, 1, 1)
	if !almostEqual(got, 1.0/20, 1e-13) {
		t.Errorf("x^19: got %.15g want %.15g", got, 1.0/20)
	}
	g := func(x float64) float64 { return 5*math.Pow(x, 4) - 3*x + 7 }
	got = GaussPanels(g, -2, 3, 1)
	want := math.Pow(3, 5) - math.Pow(-2, 5) - 1.5*(9-4) + 7*5
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("poly: got %g want %g", got, want)
	}
}

func TestGaussPanelsMatchesAdaptive(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(3*x) * math.Exp(-x/2) }
	want, err := Adaptive(f, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := GaussPanels(f, 0, 10, 8)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("GaussPanels=%.12g Adaptive=%.12g", got, want)
	}
	if got := GaussPanels(f, 2, 2, 4); got != 0 {
		t.Errorf("empty interval: got %g", got)
	}
	// panels < 1 falls back to a single panel.
	if got := GaussPanels(f, 0, 1, 0); math.IsNaN(got) {
		t.Error("panels=0 produced NaN")
	}
}

// Property: Adaptive over adjacent intervals is additive.
func TestPropertyAdaptiveAdditive(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) + 0.3*x }
	prop := func(aRaw, mRaw, bRaw uint8) bool {
		a := float64(aRaw) / 20
		m := a + float64(mRaw)/20
		b := m + float64(bRaw)/20
		whole, err1 := Adaptive(f, a, b, 1e-11)
		left, err2 := Adaptive(f, a, m, 1e-11)
		right, err3 := Adaptive(f, m, b, 1e-11)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(whole-(left+right)) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAutoPanelsMatchesFixed16 pins the adaptive rule against
// the fixed-16-panel oracle it replaces: over random smooth integrands
// (damped oscillators with random frequency, phase and decay — the
// shape of the model's u-integrands away from the clip), AutoPanels
// must agree with GaussPanels(…, 16) to well under the model's own
// approximation error.
func TestPropertyAutoPanelsMatchesFixed16(t *testing.T) {
	prop := func(freqSeed, phaseSeed, decaySeed uint8, spanSeed uint16) bool {
		freq := 0.1 + float64(freqSeed)/32 // up to ~8 rad over the interval
		phase := float64(phaseSeed) / 40
		decay := float64(decaySeed) / 512
		span := 0.5 + float64(spanSeed%2000)/100 // [0.5, 20.5]
		f := func(x float64) float64 {
			return math.Exp(-decay*x) * (1 + 0.5*math.Sin(freq*x+phase))
		}
		got := AutoPanels(f, 0, span, 1e-10, 32)
		want := GaussPanels(f, 0, span, 16)
		return almostEqual(got, want, 1e-8*math.Max(1, math.Abs(want)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoPanelsRefinesOnlyOnFailure verifies the cost contract: a
// smooth integrand stops at the first 4-vs-8 comparison (12 panels =
// 240 evaluations, cheaper than the fixed 16 = 320), while a kinked
// integrand under a tight tolerance keeps doubling to the cap.
func TestAutoPanelsRefinesOnlyOnFailure(t *testing.T) {
	count := 0
	smooth := func(x float64) float64 { count++; return math.Exp(-x * x) }
	AutoPanels(smooth, 0, 3, 1e-10, 32)
	if count != (4+8)*20 {
		t.Errorf("smooth integrand used %d evaluations, want %d (4+8 panels)", count, (4+8)*20)
	}
	count = 0
	kinked := func(x float64) float64 { count++; return math.Abs(x - math.Sqrt2) }
	AutoPanels(kinked, 0, 3, 1e-14, 32)
	if count != (4+8+16+32)*20 {
		t.Errorf("kinked integrand used %d evaluations, want %d (doubling to the cap)", count, (4+8+16+32)*20)
	}
}

// TestAutoPanelsDegenerateAndClamps covers the edges: an empty
// interval is exactly zero, and a sub-8 cap is clamped so the rule
// always has one refinement to compare against.
func TestAutoPanelsDegenerateAndClamps(t *testing.T) {
	if v := AutoPanels(math.Sin, 2, 2, 0, 32); v != 0 {
		t.Errorf("empty interval: got %v, want 0", v)
	}
	got := AutoPanels(math.Cos, 0, 1, 0, 1)
	want := GaussPanels(math.Cos, 0, 1, 8)
	if got != want {
		t.Errorf("clamped cap: got %v, want the 8-panel value %v", got, want)
	}
}

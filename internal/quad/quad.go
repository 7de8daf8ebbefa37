// Package quad provides the numerical integration routines used by the
// analytic hit-probability model.
//
// The model in internal/analytic evaluates nested integrals of the form
//
//	∫ dVc ∫ dVf Σ_i [F(hi(Vc,Vf)) − F(lo(Vc,Vf))]
//
// whose integrands are piecewise smooth with a modest number of kinks
// (interval boundaries clipped against 0 and l−Vc). Composite
// Gauss–Legendre panels evaluate them; adaptive Simpson is the
// reference the tests hold the panel rules to.
package quad

import (
	"errors"
	"math"
	"sync"
)

// DefaultTol is the absolute error tolerance used when a caller passes a
// non-positive tolerance to the adaptive routines.
const DefaultTol = 1e-9

// maxDepth bounds adaptive recursion. 2^40 subdivisions of the initial
// interval is far below attainable float64 resolution, so hitting the bound
// indicates a pathological integrand; the routine then returns its best
// estimate rather than recursing forever.
const maxDepth = 40

// ErrInvalidInterval is returned by integration routines when the interval
// bounds are not finite.
var ErrInvalidInterval = errors.New("quad: interval bounds must be finite")

// Func is a scalar integrand.
type Func func(x float64) float64

// Adaptive integrates f over [a, b] with adaptive Simpson refinement until
// the local error estimate is below tol (DefaultTol when tol <= 0).
// The interval may be reversed (a > b), in which case the result is negated
// as usual. It returns ErrInvalidInterval for NaN/Inf bounds.
func Adaptive(f Func, a, b float64, tol float64) (float64, error) {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 0, ErrInvalidInterval
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := simpsonRule(a, b, fa, fm, fb)
	v := adaptStep(f, a, b, fa, fm, fb, whole, tol, maxDepth)
	return sign * v, nil
}

// simpsonRule evaluates the basic Simpson rule on [a,b] given endpoint and
// midpoint samples.
func simpsonRule(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptStep(f Func, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := simpsonRule(a, m, fa, flm, fm)
	right := simpsonRule(m, b, fm, frm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		// Richardson extrapolation: the composite estimate plus the
		// leading error term.
		return left + right + delta/15
	}
	return adaptStep(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptStep(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// gauss20 holds the nodes (on [0,1] after affine transform we use ±x) and
// weights of the 20-point Gauss–Legendre rule on [-1, 1]. Values from
// Abramowitz & Stegun table 25.4; symmetric halves stored once.
var gauss20 = [...]struct{ x, w float64 }{
	{0.0765265211334973, 0.1527533871307258},
	{0.2277858511416451, 0.1491729864726037},
	{0.3737060887154195, 0.1420961093183820},
	{0.5108670019508271, 0.1316886384491766},
	{0.6360536807265150, 0.1181945319615184},
	{0.7463319064601508, 0.1019301198172404},
	{0.8391169718222188, 0.0832767415767048},
	{0.9122344282513259, 0.0626720483341091},
	{0.9639719272779138, 0.0406014298003869},
	{0.9931285991850949, 0.0176140071391521},
}

// node is one abscissa/weight pair of a composite rule on [0, 1].
type node struct{ x, w float64 }

// panelTables caches one flattened composite Gauss–Legendre table per
// panel count, each built exactly once behind a sync.OnceValue. The hot
// sweeps in internal/analytic evaluate millions of panels at a handful
// of distinct counts, so the per-call subdivision arithmetic of the
// panel loop is paid once here instead of on every integral.
var panelTables sync.Map // int -> func() []node

// panelNodes returns the 20·panels-node composite table on [0, 1].
func panelNodes(panels int) []node {
	v, ok := panelTables.Load(panels)
	if !ok {
		v, _ = panelTables.LoadOrStore(panels, sync.OnceValue(func() []node {
			t := make([]node, 0, 20*panels)
			pw := 1 / float64(panels)
			for p := 0; p < panels; p++ {
				c := (float64(p) + 0.5) * pw
				h := 0.5 * pw
				for _, g := range gauss20 {
					t = append(t, node{c + h*g.x, g.w * h}, node{c - h*g.x, g.w * h})
				}
			}
			return t
		}))
	}
	return v.(func() []node)()
}

// GaussPanels integrates f over [a, b] by splitting it into panels equal
// subintervals, applying the 20-point Gauss–Legendre rule on each.
// Panels below 1 are treated as 1. The composite node/weight table is
// precomputed per panel count and reused across calls.
func GaussPanels(f Func, a, b float64, panels int) float64 {
	if panels < 1 {
		panels = 1
	}
	if a == b {
		return 0
	}
	w := b - a
	var sum float64
	for _, n := range panelNodes(panels) {
		sum += n.w * f(a+w*n.x)
	}
	return sum * w
}

// AutoPanels integrates f over [a, b] with a composite Gauss–Legendre
// rule whose panel count starts at 4 and doubles only while two
// successive refinements disagree by more than tol (DefaultTol when
// tol <= 0), stopping at maxPanels (clamped to at least 8). Smooth
// integrands converge at the first 4-vs-8 comparison — 12 panel
// evaluations instead of a fixed 16 — while integrands with kinks from
// interval clipping refine toward maxPanels. The result is a pure
// function of (f, a, b, tol, maxPanels), so callers relying on
// deterministic replay can use it freely.
func AutoPanels(f Func, a, b, tol float64, maxPanels int) float64 {
	if a == b {
		return 0
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxPanels < 8 {
		maxPanels = 8
	}
	prev := GaussPanels(f, a, b, 4)
	for p := 8; ; p *= 2 {
		cur := GaussPanels(f, a, b, p)
		if math.Abs(cur-prev) <= tol || p >= maxPanels {
			return cur
		}
		prev = cur
	}
}

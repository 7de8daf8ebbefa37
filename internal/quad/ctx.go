package quad

import (
	"context"
	"math"
)

// This file holds the context-aware entry points of the integration
// routines. The serving stack runs model evaluations under per-request
// wall-clock budgets; when the request is canceled the integration must
// stop burning CPU promptly rather than completing a doomed sweep. Each
// routine checks ctx between panels, so cancellation latency is bounded
// by one panel's worth of integrand evaluations. The summation order is
// identical to the non-ctx routines, so results are bit-for-bit equal
// when the context never fires.

// nodesPerPanel is the length of one panel's slice of the composite
// table built by panelNodes (10 symmetric Gauss–Legendre pairs, two
// nodes each).
const nodesPerPanel = 20

// GaussPanelsCtx is GaussPanels with a cancellation checkpoint before
// each panel: it returns ctx.Err() partway when the context is done,
// after at most one additional panel of integrand evaluations.
func GaussPanelsCtx(ctx context.Context, f Func, a, b float64, panels int) (float64, error) {
	if panels < 1 {
		panels = 1
	}
	if a == b {
		return 0, ctx.Err()
	}
	nodes := panelNodes(panels)
	w := b - a
	var sum float64
	for p := 0; p < panels; p++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, n := range nodes[p*nodesPerPanel : (p+1)*nodesPerPanel] {
			sum += n.w * f(a+w*n.x)
		}
	}
	return sum * w, nil
}

// AutoPanelsCtx is AutoPanels with a cancellation checkpoint before
// each panel of each refinement pass. The doubling schedule and
// summation order match AutoPanels exactly, so results are bit-for-bit
// equal when the context never fires.
func AutoPanelsCtx(ctx context.Context, f Func, a, b, tol float64, maxPanels int) (float64, error) {
	if a == b {
		return 0, ctx.Err()
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxPanels < 8 {
		maxPanels = 8
	}
	prev, err := GaussPanelsCtx(ctx, f, a, b, 4)
	if err != nil {
		return 0, err
	}
	for p := 8; ; p *= 2 {
		cur, err := GaussPanelsCtx(ctx, f, a, b, p)
		if err != nil {
			return 0, err
		}
		if math.Abs(cur-prev) <= tol || p >= maxPanels {
			return cur, nil
		}
		prev = cur
	}
}

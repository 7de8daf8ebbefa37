package quad

import (
	"context"
	"math"
	"testing"
)

// TestCtxVariantsMatchPlain verifies that the ctx-aware routines are
// bit-identical to their plain counterparts when the context never
// fires.
func TestCtxVariantsMatchPlain(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x) }
	ctx := context.Background()
	cases := []struct {
		a, b   float64
		panels int
	}{
		{0, 1, 1}, {0, 4, 8}, {-2, 3, 5}, {1, 1, 3},
	}
	for _, c := range cases {
		want := GaussPanels(f, c.a, c.b, c.panels)
		got, err := GaussPanelsCtx(ctx, f, c.a, c.b, c.panels)
		if err != nil {
			t.Fatalf("GaussPanelsCtx(%v, %v, %d): %v", c.a, c.b, c.panels, err)
		}
		if got != want {
			t.Errorf("GaussPanelsCtx(%v, %v, %d) = %v, plain = %v", c.a, c.b, c.panels, got, want)
		}
	}
}

// TestCtxVariantsCanceledBeforeStart verifies every routine returns the
// context error without integrating when handed a dead context.
func TestCtxVariantsCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	f := func(x float64) float64 { calls++; return x }

	cases := []struct {
		name string
		run  func() error
	}{
		{"GaussPanelsCtx", func() error { _, err := GaussPanelsCtx(ctx, f, 0, 1, 4); return err }},
		{"AutoPanelsCtx", func() error { _, err := AutoPanelsCtx(ctx, f, 0, 1, 0, 32); return err }},
	}
	for _, c := range cases {
		calls = 0
		if err := c.run(); err != context.Canceled {
			t.Errorf("%s on canceled ctx = %v, want context.Canceled", c.name, err)
		}
		if calls > 0 {
			t.Errorf("%s evaluated the integrand %d times on a dead context", c.name, calls)
		}
	}
}

// TestGaussPanelsCtxCancelsWithinOnePanel cancels the context from
// inside the integrand and verifies the sweep stops within one panel
// (40 node evaluations), the routine's documented cancellation bound.
func TestGaussPanelsCtxCancelsWithinOnePanel(t *testing.T) {
	const panels = 50
	cancelAt := []int{1, 20, 95, 700} // the 50-panel sweep makes 1000 evaluations
	for _, at := range cancelAt {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		f := func(x float64) float64 {
			calls++
			if calls == at {
				cancel()
			}
			return x
		}
		_, err := GaussPanelsCtx(ctx, f, 0, 1, panels)
		cancel()
		if err != context.Canceled {
			t.Fatalf("cancel at call %d: err = %v, want context.Canceled", at, err)
		}
		if calls > at+nodesPerPanel {
			t.Errorf("cancel at call %d: %d evaluations, want ≤ %d (one extra panel)",
				at, calls, at+nodesPerPanel)
		}
	}
}

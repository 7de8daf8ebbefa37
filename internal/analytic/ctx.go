package analytic

import (
	"context"
	"math"

	"vodalloc/internal/dist"
)

// This file holds the context-aware model entry points. The serving
// stack evaluates models under per-request wall-clock budgets; a
// canceled request must stop integrating promptly instead of finishing
// a doomed evaluation while holding a worker-pool token. Cancellation
// is checked once per quadrature panel (via quad.GaussPanelsCtx) and
// every 256 periods of the closed-form pause sum, so the latency bound
// is one panel or 256 periods of evaluations — microseconds on the
// paper's parameter ranges. The plain methods (HitFF, HitMix, …)
// delegate here with context.Background(), so both paths share one
// implementation and produce bit-identical results.

// HitFFCtx is HitFF with cancellation checkpoints; it returns ctx.Err()
// partway when the context is done.
func (m *Model) HitFFCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	f := m.durFnFor(d)
	end := m.pEnd(f)
	if m.cfg.B == 0 {
		// Pure batching: partitions have zero width; only the
		// ran-off-the-end release remains.
		return end, ctx.Err()
	}
	s, err := m.clippedSumCtx(ctx, f, m.ffIntervals())
	if err != nil {
		return 0, err
	}
	// The sweep and end terms are each correct to quadrature accuracy,
	// but their float sum can poke past 1 by ~1e-15 when both saturate
	// (B = L with a short-tailed duration); clamp like HitMix does.
	return clampProb(s + end), nil
}

// HitRWCtx is HitRW with cancellation checkpoints.
func (m *Model) HitRWCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	if m.cfg.B == 0 {
		return 0, ctx.Err()
	}
	v, err := m.clippedSumCtx(ctx, m.durFnFor(d), m.rwIntervals())
	if err != nil {
		return 0, err
	}
	return clampProb(v), nil
}

// HitPAUCtx is HitPAU with cancellation checkpoints. Families with a
// closed-form H sum pauTerm over the restart periods; the others
// integrate the period scan over the offset u (pauQuadCtx).
func (m *Model) HitPAUCtx(ctx context.Context, d dist.Distribution) (float64, error) {
	if m.cfg.B == 0 {
		return 0, ctx.Err()
	}
	f := m.durFnFor(d)
	if f.H == nil {
		return m.pauQuadCtx(ctx, f)
	}
	var sum float64
	if err := m.pauScan(ctx, f, func(_ int, v float64) { sum += v }); err != nil {
		return 0, err
	}
	return clampProb(sum / m.cfg.PartitionSize()), nil
}

// pauQuadCtx evaluates P(hit|PAU) = (N/B)·∫₀^{B/N} Σ_i mass_i(u) du by
// quadrature over u, scanning the restart periods at each node. It serves
// the families without a closed-form H and is the oracle for pauScan.
func (m *Model) pauQuadCtx(ctx context.Context, f durFn) (float64, error) {
	c := m.cfg
	span := c.PartitionSize()
	period := c.RestartInterval()
	coverage := span / period // long-run fraction of time a position is buffered
	integrand := func(u float64) float64 {
		var sum float64
		for i := 0; ; i++ {
			a := float64(i)*period - u
			b := a + span
			if a < 0 {
				a = 0
			}
			fa := f.F(a)
			tail := 1 - fa
			if tail < pauTailEps {
				break
			}
			if i >= pauExactScan {
				// Far out in the tail the CDF is nearly constant across
				// one restart period, so the remaining hit mass is the
				// long-run coverage fraction of the remaining tail. This
				// bounds the scan for heavy-tailed pauses (e.g. Pareto)
				// whose support stretches over millions of periods.
				sum += tail * coverage
				break
			}
			sum += f.massAt(a, b, fa)
		}
		return sum
	}
	v, err := m.uIntegralCtx(ctx, integrand, span)
	if err != nil {
		return 0, err
	}
	return clampProb(float64(c.N) / c.B * v), nil
}

// pauScan calls visit with each restart period's pauTerm, in order from
// i = 0, so that the terms sum to s·P(hit|PAU) with s = B/N. It stops
// where pauQuadCtx's scan stops at every offset u: once the tail beyond
// period i's earliest start (i·p − s)⁺ is below pauTailEps, or after the
// coverage lump at i = pauExactScan. ctx is checked on entry and every
// 256 periods.
func (m *Model) pauScan(ctx context.Context, f durFn, visit func(i int, v float64)) error {
	s, p := m.cfg.PartitionSize(), m.cfg.RestartInterval()
	for i := 0; i <= pauExactScan; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		x := float64(i) * p
		if 1-f.F(math.Max(0, x-s)) < pauTailEps {
			break
		}
		visit(i, m.pauTerm(f, i, x, s, p))
	}
	return nil
}

// pauTerm returns restart period i's share of s·P(hit|PAU), x = i·p:
//
//	∫₀ˢ [F(x − u + s) − F((x − u)⁺)] du    for i < pauExactScan,
//	(s/p)·∫₀ˢ (1 − F(x − u)) du            for the lump at pauExactScan.
//
// Swapping the u-integral and the period sum makes these differences of
// H = ∫(1 − F) (DESIGN §3): G(s) − s·F(0) = s − H(0) + H(s) − s·F(0) at
// i = 0, the second difference H(x − s) − 2H(x) + H(x + s) for
// 0 < i < pauExactScan, and (H(x − s) − H(x))·s/p for the lump. They are
// written in H rather than G = ∫F because far out in the tail G's O(x)
// terms would cancel. Without a closed-form H each term is one
// u-quadrature.
func (m *Model) pauTerm(f durFn, i int, x, s, p float64) float64 {
	H := f.H
	if H == nil {
		if i == pauExactScan {
			return m.uIntegral(func(u float64) float64 {
				return (1 - f.F(math.Max(0, x-u))) * s / p
			}, s)
		}
		return m.uIntegral(func(u float64) float64 { return f.mass(x-u, x-u+s) }, s)
	}
	var v float64
	switch i {
	case 0:
		v = s - H(0) + H(s) - s*f.F(0)
	case pauExactScan:
		v = (H(x-s) - H(x)) * s / p
	default:
		v = H(x-s) - 2*H(x) + H(x+s)
	}
	// Every term is a non-negative mass; clamp the rounding of the
	// differences.
	return math.Max(0, v)
}

// HitCtx is Hit with cancellation checkpoints.
func (m *Model) HitCtx(ctx context.Context, op Op, d dist.Distribution) (float64, error) {
	switch op {
	case FF:
		return m.HitFFCtx(ctx, d)
	case RW:
		return m.HitRWCtx(ctx, d)
	default:
		return m.HitPAUCtx(ctx, d)
	}
}

// HitMixCtx is HitMix with cancellation checkpoints: the context is
// consulted inside each operation's evaluation (per quadrature panel, or
// per 256 periods of the pause sum), so a canceled evaluation stops
// promptly.
func (m *Model) HitMixCtx(ctx context.Context, x Mix) (float64, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	var ff, rw, pau float64
	var err error
	if x.PFF > 0 {
		if ff, err = m.HitFFCtx(ctx, x.FF); err != nil {
			return 0, err
		}
	}
	if x.PRW > 0 {
		if rw, err = m.HitRWCtx(ctx, x.RW); err != nil {
			return 0, err
		}
	}
	if x.PPAU > 0 {
		if pau, err = m.HitPAUCtx(ctx, x.PAU); err != nil {
			return 0, err
		}
	}
	return x.Weigh(ff, rw, pau), nil
}

// clippedSumCtx evaluates
//
//	N/(L·B) ∫₀^{B/N} Σ_i ∫₀ᴸ [F(min(bᵢ,c)) − F(min(aᵢ,c))] dc du
//
// — the hit probability unconditioned over the uniform viewer position
// (clip boundary c) and the uniform first-viewer offset u — checking
// ctx between quadrature panels of the outer u-integral.
func (m *Model) clippedSumCtx(ctx context.Context, f durFn, iv ivSpec) (float64, error) {
	c := m.cfg
	span := c.PartitionSize()
	integrand := func(u float64) float64 {
		var sum float64
		for i := 0; i <= maxPartitionScan; i++ {
			a, b, ok := iv.at(i, u)
			if !ok {
				break
			}
			// ivSpec.at clamps a to ≥ 0, so F(a)/G(a) are evaluated once
			// here and shared with the clipped-mass computation below.
			fa, ga := f.FG(a)
			// The intervals are disjoint and ascending, so everything
			// still ahead carries at most the duration tail beyond a;
			// stop once that is negligible. This bounds the scan for
			// configurations with astronomically many partitions.
			if 1-fa < pauTailEps {
				break
			}
			sum += f.clippedMassAt(a, b, c.L, fa, ga)
		}
		return sum
	}
	v, err := m.uIntegralCtx(ctx, integrand, span)
	if err != nil {
		return 0, err
	}
	return float64(c.N) / (c.L * c.B) * v, nil
}

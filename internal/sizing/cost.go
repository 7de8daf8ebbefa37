package sizing

import (
	"context"
	"fmt"
	"math"

	"vodalloc/internal/disk"
	"vodalloc/internal/workload"
)

// CostModel carries the unit prices of the two resources the paper
// trades against each other: Cb dollars per buffered movie-minute and Cn
// dollars per I/O stream (paper §5, Eq. 23).
type CostModel struct {
	Cb, Cn float64
}

// Validate checks price positivity.
func (c CostModel) Validate() error {
	if !(c.Cb > 0) || !(c.Cn > 0) || math.IsInf(c.Cb, 0) || math.IsInf(c.Cn, 0) {
		return fmt.Errorf("%w: cost model %+v", ErrBadParam, c)
	}
	return nil
}

// Phi returns φ = Cb/Cn, the buffer-to-stream price ratio that Figure 9
// sweeps (3, 4, 6, 10, 11, 16).
func (c CostModel) Phi() float64 { return c.Cb / c.Cn }

// PlanCost returns the dollar cost Cb·ΣB + Cn·Σn of a plan.
func (c CostModel) PlanCost(p Plan) float64 {
	return c.Cb*p.TotalBuffer + c.Cn*float64(p.TotalStreams)
}

// HardwareCostModel derives (Cb, Cn) from hardware prices as the paper's
// Example 2 does: Cb = (60·streamMbps/8) MB per movie-minute times the
// memory price, and Cn = diskCost divided by the streams one disk
// sustains. With the paper's numbers (a $700 2-GB SCSI disk at 5 MB/s,
// 4 Mbps MPEG-2, $25/MB memory) this yields Cb = $750, Cn = $70, φ ≈ 11.
func HardwareCostModel(diskCost, diskMBps, streamMbps, memPerMB float64) (CostModel, error) {
	if !(diskCost > 0) || !(memPerMB > 0) {
		return CostModel{}, fmt.Errorf("%w: prices must be positive", ErrBadParam)
	}
	spd := disk.StreamsPerDisk(diskMBps, streamMbps)
	if spd < 1 {
		return CostModel{}, fmt.Errorf("%w: disk %v MB/s cannot carry a %v Mbps stream",
			ErrBadParam, diskMBps, streamMbps)
	}
	mbPerMinute := 60 * streamMbps / 8
	return CostModel{
		Cb: mbPerMinute * memPerMB,
		Cn: diskCost / float64(spd),
	}, nil
}

// CurvePoint is one point of the Figure 9 cost curve: the buffer-minimal
// allocation with the given total stream count and its cost in units of
// Cn (Eq. 23: C/Cn = φ·ΣB + Σn).
type CurvePoint struct {
	TotalStreams int
	TotalBuffer  float64
	// RelativeCost is φ·ΣB + Σn; multiply by Cn for dollars.
	RelativeCost float64
}

// CostCurve traces the feasibility frontier of the catalog via the
// shared Default evaluator. See (*Evaluator).CostCurve.
func CostCurve(movies []workload.Movie, r Rates, phi float64, maxPoints int) ([]CurvePoint, error) {
	return Default.CostCurve(movies, r, phi, maxPoints)
}

// CostCurveCtx is CostCurve with cancellation checkpoints, via the
// shared Default evaluator.
func CostCurveCtx(ctx context.Context, movies []workload.Movie, r Rates, phi float64, maxPoints int) ([]CurvePoint, error) {
	return Default.CostCurveCtx(ctx, movies, r, phi, maxPoints)
}

// CostCurve traces the feasibility frontier of the catalog from the
// minimum stream count (one per movie) to the buffer-minimal maximum,
// reporting the Eq. 23 cost of each total at the given φ. Moving left
// along the curve removes streams from the smallest-w movies first, the
// buffer-optimal order. maxPoints caps the sampling density (0 = every
// integer total). The underlying plan search runs on the evaluator's
// worker budget and memo cache, so curves at different φ over one
// catalog reuse each other's model evaluations.
func (e *Evaluator) CostCurve(movies []workload.Movie, r Rates, phi float64, maxPoints int) ([]CurvePoint, error) {
	return e.CostCurveCtx(context.Background(), movies, r, phi, maxPoints)
}

// CostCurveCtx is CostCurve with cancellation checkpoints: the
// underlying plan search honors the context (see MinBufferPlanCtx); the
// curve walk itself is pure arithmetic and runs to completion.
func (e *Evaluator) CostCurveCtx(ctx context.Context, movies []workload.Movie, r Rates, phi float64, maxPoints int) ([]CurvePoint, error) {
	if !(phi > 0) || math.IsInf(phi, 0) {
		return nil, fmt.Errorf("%w: phi %v", ErrBadParam, phi)
	}
	base, err := e.MinBufferPlanCtx(ctx, movies, r, 0, 0)
	if err != nil {
		return nil, err
	}
	// Build the removal sequence: for each movie, (N_i − 1) removable
	// streams each costing w_i buffer; cheapest w first.
	order := sortByWait(movies)
	type step struct{ w float64 }
	var steps []step
	for _, i := range order {
		for k := 0; k < base.Allocs[i].N-1; k++ {
			steps = append(steps, step{w: movies[i].Wait})
		}
	}

	// Walk from the max-streams end to the min end accumulating buffer.
	pts := make([]CurvePoint, 0, len(steps)+1)
	bTot := base.TotalBuffer
	nTot := base.TotalStreams
	pts = append(pts, CurvePoint{TotalStreams: nTot, TotalBuffer: bTot, RelativeCost: phi*bTot + float64(nTot)})
	for _, s := range steps {
		nTot--
		bTot += s.w
		pts = append(pts, CurvePoint{TotalStreams: nTot, TotalBuffer: bTot, RelativeCost: phi*bTot + float64(nTot)})
	}
	// Reverse into ascending stream order for plotting.
	for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
		pts[i], pts[j] = pts[j], pts[i]
	}
	if maxPoints > 1 && len(pts) > maxPoints {
		stride := (len(pts) + maxPoints - 1) / maxPoints
		thin := make([]CurvePoint, 0, maxPoints+1)
		for i := 0; i < len(pts); i += stride {
			thin = append(thin, pts[i])
		}
		if last := pts[len(pts)-1]; thin[len(thin)-1] != last {
			thin = append(thin, last)
		}
		pts = thin
	}
	return pts, nil
}

// MinCostPoint returns the curve point with the lowest relative cost —
// the optimal system sizing of Example 2 ("the minimum point on a cost
// curve … is the optimal system sizing choice").
func MinCostPoint(pts []CurvePoint) (CurvePoint, error) {
	if len(pts) == 0 {
		return CurvePoint{}, fmt.Errorf("%w: empty curve", ErrBadParam)
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.RelativeCost < best.RelativeCost {
			best = p
		}
	}
	return best, nil
}

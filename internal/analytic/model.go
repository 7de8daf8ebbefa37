package analytic

import (
	"context"
	"math"
	"reflect"
	"sync"

	"vodalloc/internal/dist"
	"vodalloc/internal/quad"
)

// Model evaluates the paper's hit-probability equations for one
// static-partitioning configuration. The zero value is not usable; build
// with New. Model is immutable after construction and safe for concurrent
// use.
type Model struct {
	cfg     Config
	uPanels int
	// durCache memoizes the (F, G) functionals per duration distribution
	// (they depend only on the distribution and L, both fixed for the
	// model's lifetime). Building G is the expensive part of a Hit call
	// for grid-fallback families, so repeated evaluations — breakdowns,
	// mixes sharing a distribution, sweeps over one model — skip it.
	// Shared across WithUPanels copies; keyed by the distribution value.
	durCache *sync.Map
}

// DefaultUPanels is the number of Gauss–Legendre panels used for the
// remaining one-dimensional quadrature over the partition offset
// u = Vf − Vc. The integrand is C¹, so 16 panels (320 nodes) deliver
// ~1e-9 accuracy on the paper's parameter ranges.
const DefaultUPanels = 16

// New validates cfg and returns a Model for it.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, uPanels: DefaultUPanels, durCache: new(sync.Map)}, nil
}

// MustNew is New that panics on invalid configurations; for tests and
// package-level tables.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// WithUPanels returns a copy of the model using the given number of
// quadrature panels (values below 1 select DefaultUPanels). It no longer
// affects HitPAU for the families with a closed-form H, whose pause sum
// has no u-quadrature; FF, RW and the other pause families still use it.
func (m *Model) WithUPanels(p int) *Model {
	c := *m
	if p < 1 {
		p = DefaultUPanels
	}
	c.uPanels = p
	return &c
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// uAutoTol is the absolute convergence tolerance of the adaptive
// u-integral. The integrals are probability masses (O(1) or smaller),
// so agreement to 1e-10 between successive panel doublings leaves the
// quadrature error far below the model's own approximation error.
const uAutoTol = 1e-10

// uIntegral evaluates one u-integral over [0, span]. At the default
// panel count it uses the adaptive doubling rule: partitions far from
// the 0/L clip have analytic integrands that converge at 4-vs-8 panels
// (most of every scan), while near-clip partitions refine up to
// 2×DefaultUPanels. An explicit WithUPanels choice is honored exactly.
func (m *Model) uIntegral(f quad.Func, span float64) float64 {
	v, _ := m.uIntegralCtx(context.Background(), f, span)
	return v
}

// uIntegralCtx is uIntegral with cancellation checkpoints; both paths
// share one implementation so plain and ctx-aware evaluations stay
// bit-identical.
func (m *Model) uIntegralCtx(ctx context.Context, f quad.Func, span float64) (float64, error) {
	if m.uPanels == DefaultUPanels {
		return quad.AutoPanelsCtx(ctx, f, 0, span, uAutoTol, 2*DefaultUPanels)
	}
	return quad.GaussPanelsCtx(ctx, f, 0, span, m.uPanels)
}

// Op identifies a VCR operation type.
type Op int

// The three interactive operations the paper models (§2).
const (
	FF  Op = iota // fast-forward with viewing
	RW            // rewind with viewing
	PAU           // pause
)

// String returns the conventional abbreviation used in the paper.
func (o Op) String() string {
	switch o {
	case FF:
		return "FF"
	case RW:
		return "RW"
	case PAU:
		return "PAU"
	default:
		return "Op(?)"
	}
}

// durFnFor returns the cached (F, G) pair for d, building and memoizing
// it in the model's cache on first use. Distributions whose dynamic
// type is not comparable (mixtures, empirical data) bypass the cache —
// the map would panic on them — and rebuild per call.
func (m *Model) durFnFor(d dist.Distribution) durFn {
	if m.durCache == nil || !reflect.TypeOf(d).Comparable() {
		return newDurFn(d, m.cfg.L)
	}
	if v, ok := m.durCache.Load(d); ok {
		return v.(durFn)
	}
	v, _ := m.durCache.LoadOrStore(d, newDurFn(d, m.cfg.L))
	return v.(durFn)
}

// ivSpec describes, for one candidate partition index i and offset u,
// the duration interval [a, b] that yields a hit, before clipping.
// ok=false terminates the partition scan. A plain value (rather than the
// closure it replaced) so building one per Hit call allocates nothing.
type ivSpec struct {
	scale  float64 // α for FF, γ for RW (Eq. 1 catch-up factors)
	period float64 // L/N
	span   float64 // B/N
	l      float64
	rw     bool
}

// at yields the i-th hit interval at offset u.
func (s ivSpec) at(i int, u float64) (a, b float64, ok bool) {
	if s.rw {
		// Landing in the i-th partition behind: rewind
		// x ∈ [γ·(i·L/N − u)⁺, γ·(i·L/N − u + B/N)].
		base := float64(i)*s.period - u
		a = s.scale * base
		if a < 0 {
			a = 0
		}
		if a >= s.l {
			return 0, 0, false
		}
		return a, s.scale * (base + s.span), true
	}
	// Catching the i-th partition ahead: sweep
	// x ∈ [α·(i·L/N + u − B/N)⁺, α·(i·L/N + u)].
	base := float64(i)*s.period + u
	a = s.scale * (base - s.span)
	if a < 0 {
		a = 0
	}
	if a >= s.l {
		return 0, 0, false
	}
	return a, s.scale * base, true
}

// first yields the earliest start of the i-th hit interval over the
// offsets u ∈ [0, B/N] — u = 0 for FF, u = B/N for RW — and ok=false
// once even that start has passed the movie end.
func (s ivSpec) first(i int) (a float64, ok bool) {
	u := 0.0
	if s.rw {
		u = s.span
	}
	a, _, ok = s.at(i, u)
	return a, ok
}

// HitFF returns P(hit | FF) — paper Eq. (21): the probability that a
// fast-forward of duration drawn from d ends in a hit, either within the
// viewer's own partition (hit_w, Eqs. 3–8), in a partition ahead
// (hit_j^i, Eqs. 9–18), or by running off the end of the movie
// (P(end), Eq. 20). d is the distribution of the movie-time distance
// swept by the FF operation.
func (m *Model) HitFF(d dist.Distribution) float64 {
	v, _ := m.HitFFCtx(context.Background(), d)
	return v
}

// HitRW returns P(hit | RW): the probability that a rewind of duration
// drawn from d (movie-time distance swept backwards) lands inside a
// partition behind the viewer. Rewinding past the start of the movie
// counts as a miss, matching the conservative boundary treatment the
// paper adopts (§4 discusses the resulting slight underestimate).
func (m *Model) HitRW(d dist.Distribution) float64 {
	v, _ := m.HitRWCtx(context.Background(), d)
	return v
}

// HitPAU returns P(hit | PAU): the probability that after a pause of
// wall-clock duration drawn from d some later batch's partition covers
// the viewer's position. Because the movie restarts every L/N minutes
// for ever, the hit set is periodic and pauses longer than L need no
// special handling (the paper's "x mod l" equivalence, §2.1). Families
// with a closed-form excess mean H are summed period by period without
// quadrature (pauTerm).
func (m *Model) HitPAU(d dist.Distribution) float64 {
	v, _ := m.HitPAUCtx(context.Background(), d)
	return v
}

// pauTailEps terminates the pause partition scan once the remaining tail
// mass of the duration distribution is negligible.
const pauTailEps = 1e-12

// pauExactScan bounds the exact per-partition pause scan; beyond it the
// remaining tail is folded in via the long-run coverage ratio.
const pauExactScan = 2048

// ffIntervals yields the FF hit-interval spec: catching the i-th
// partition ahead (i = 0 is the viewer's own) requires sweeping
// x ∈ [α·(i·L/N + u − B/N)⁺, α·(i·L/N + u)] movie-minutes (Eq. 1 applied
// to Δ_jump_l and Δ_jump_f of §3.1.2); the movie-end clip is applied by
// clippedSum.
func (m *Model) ffIntervals() ivSpec {
	c := m.cfg
	return ivSpec{scale: c.Alpha(), period: c.RestartInterval(), span: c.PartitionSize(), l: c.L}
}

// rwIntervals yields the RW hit-interval spec: landing in the i-th
// partition behind requires rewinding x ∈ [γ·(i·L/N − u)⁺,
// γ·(i·L/N − u + B/N)]; the position-0 clip is applied by clippedSum.
func (m *Model) rwIntervals() ivSpec {
	c := m.cfg
	return ivSpec{scale: c.GammaRW(), period: c.RestartInterval(), span: c.PartitionSize(), l: c.L, rw: true}
}

// pEnd evaluates P(end) = 1 − G(L)/L (paper Eq. 20): the probability a
// fast-forward carries the viewer past the end of the movie, releasing
// the phase-1 resources outright.
func (m *Model) pEnd(f durFn) float64 {
	p := 1 - f.gl(m.cfg.L)/m.cfg.L
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Hit returns the op-specific hit probability.
func (m *Model) Hit(op Op, d dist.Distribution) float64 {
	switch op {
	case FF:
		return m.HitFF(d)
	case RW:
		return m.HitRW(d)
	default:
		return m.HitPAU(d)
	}
}

// Mix describes the VCR workload mix of paper Eq. (22): the probability
// that an interactive request is of each type, with a duration
// distribution per type. Distributions for zero-probability operations
// may be nil.
type Mix struct {
	PFF, PRW, PPAU float64
	FF, RW, PAU    dist.Distribution
}

// Validate checks that the probabilities are nonnegative, sum to 1
// (within 1e-9), and that every positive-probability operation carries a
// distribution.
func (x Mix) Validate() error {
	for _, p := range []float64{x.PFF, x.PRW, x.PPAU} {
		if p < 0 || math.IsNaN(p) {
			return cfgErr("mix probability %v must be nonnegative", p)
		}
	}
	if s := x.PFF + x.PRW + x.PPAU; math.Abs(s-1) > 1e-9 {
		return cfgErr("mix probabilities sum to %v, want 1", s)
	}
	if x.PFF > 0 && x.FF == nil {
		return cfgErr("mix has PFF=%v but no FF distribution", x.PFF)
	}
	if x.PRW > 0 && x.RW == nil {
		return cfgErr("mix has PRW=%v but no RW distribution", x.PRW)
	}
	if x.PPAU > 0 && x.PAU == nil {
		return cfgErr("mix has PPAU=%v but no PAU distribution", x.PPAU)
	}
	return nil
}

// SingleOp returns a Mix that issues only the given operation with
// duration distribution d.
func SingleOp(op Op, d dist.Distribution) Mix {
	switch op {
	case FF:
		return Mix{PFF: 1, FF: d}
	case RW:
		return Mix{PRW: 1, RW: d}
	default:
		return Mix{PPAU: 1, PAU: d}
	}
}

// Weigh combines per-operation hit probabilities by paper Eq. (22):
// P(hit) = P(hit|FF)·P_FF + P(hit|RW)·P_RW + P(hit|PAU)·P_PAU, summed in
// that order over the operations of positive probability (the others'
// values are ignored) and clamped to [0, 1].
func (x Mix) Weigh(hitFF, hitRW, hitPAU float64) float64 {
	var p float64
	if x.PFF > 0 {
		p += x.PFF * hitFF
	}
	if x.PRW > 0 {
		p += x.PRW * hitRW
	}
	if x.PPAU > 0 {
		p += x.PPAU * hitPAU
	}
	return clampProb(p)
}

// HitMix returns the expected hit probability of paper Eq. (22):
// P(hit) = P(hit|FF)·P_FF + P(hit|RW)·P_RW + P(hit|PAU)·P_PAU.
func (m *Model) HitMix(x Mix) (float64, error) {
	return m.HitMixCtx(context.Background(), x)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Breakdown decomposes a hit probability into the paper's terms: the
// within-partition component (hit_w), per-partition jump components
// (hit_j^i for i = 1, 2, …), and for FF the ran-off-the-end component
// P(end). Total is their sum.
type Breakdown struct {
	Op     Op
	Within float64
	Jumps  []float64
	End    float64
	Total  float64
}

// BreakdownOf computes the per-term decomposition of Hit(op, d). The
// sum of the parts equals the corresponding Hit value to quadrature
// accuracy — for PAU with a closed-form H up to summation order, since
// both read the same per-period terms; tests rely on this identity.
func (m *Model) BreakdownOf(op Op, d dist.Distribution) Breakdown {
	bd := Breakdown{Op: op}
	f := m.durFnFor(d)
	if op == FF {
		bd.End = m.pEnd(f)
	}
	if m.cfg.B == 0 {
		bd.Total = bd.End
		return bd
	}
	c := m.cfg
	span := c.PartitionSize()
	if op == PAU {
		// The per-period terms HitPAU sums; Background never cancels.
		_ = m.pauScan(context.Background(), f, func(i int, v float64) {
			if i == 0 {
				bd.Within = v / span
			} else {
				bd.Jumps = append(bd.Jumps, v/span)
			}
		})
		bd.Jumps = trimZeros(bd.Jumps)
		bd.Total = bd.Within + sum(bd.Jumps)
		return bd
	}

	scale := float64(c.N) / (c.L * c.B)
	var iv ivSpec
	switch op {
	case FF:
		iv = m.ffIntervals()
	default:
		iv = m.rwIntervals()
	}

	// Scan the partition indices the Hit integrand reaches at some
	// offset u: its scan stops once the interval start passes l or the
	// tail beyond it is negligible, and iv.first is the earliest start
	// over u. An index inside the scan may contribute nothing (a
	// duration whose support starts partitions away); it stays as a zero
	// jump so that Jumps[i-1] remains hit_j^i.
	for i := 0; i <= maxPartitionScan; i++ {
		if a, ok := iv.first(i); !ok || 1-f.F(a) < pauTailEps {
			break
		}
		contrib := scale * m.uIntegral(func(u float64) float64 {
			a, b, ok := iv.at(i, u)
			if !ok || 1-f.F(a) < pauTailEps {
				return 0
			}
			return f.clippedMass(a, b, c.L)
		}, span)
		if i == 0 {
			bd.Within = contrib
		} else {
			bd.Jumps = append(bd.Jumps, contrib)
		}
	}
	bd.Jumps = trimZeros(bd.Jumps)
	bd.Total = bd.Within + sum(bd.Jumps) + bd.End
	return bd
}

// maxPartitionScan caps every per-partition scan. Real configurations
// terminate via the movie-end / duration-tail breaks after at most a few
// thousand iterations (n partitions fit in one movie length); the cap
// only bounds adversarial parameterizations (astronomical n with
// degenerate duration distributions) to a predictable worst case.
const maxPartitionScan = 1 << 16

// trimZeros drops a breakdown's trailing zero jumps: they carry no mass,
// and a scan that passes over a gap in the duration's support can end on
// them.
func trimZeros(jumps []float64) []float64 {
	for len(jumps) > 0 && jumps[len(jumps)-1] == 0 {
		jumps = jumps[:len(jumps)-1]
	}
	return jumps
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

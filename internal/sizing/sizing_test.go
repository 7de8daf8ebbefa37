package sizing

import (
	"context"
	"errors"
	"math"
	"testing"

	"vodalloc/internal/dist"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

func TestMixFromProfile(t *testing.T) {
	gam := dist.MustGamma(2, 4)
	p := workload.MixedProfile(gam, dist.MustExponential(15))
	mix := MixFromProfile(p)
	if mix.PFF != 0.2 || mix.PRW != 0.2 || mix.PPAU != 0.6 {
		t.Errorf("mix %+v", mix)
	}
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleByBufferStep(t *testing.T) {
	m := workload.Example1Movies()[1] // l=60, w=0.5
	pts, err := FeasibleByBufferStep(m, DefaultRates, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("too few points: %d", len(pts))
	}
	for i, p := range pts {
		// Wait identity: B = l − n·w.
		if math.Abs(p.B-(m.Length-float64(p.N)*m.Wait)) > 1e-9 {
			t.Errorf("point %d violates Eq. 2: %+v", i, p)
		}
		if p.Hit < 0 || p.Hit > 1 {
			t.Errorf("point %d hit %g", i, p.Hit)
		}
		if p.Feasible != (p.Hit >= m.TargetHit) {
			t.Errorf("point %d feasibility flag wrong", i)
		}
		// Hit grows with buffer along the frontier.
		if i > 0 && p.Hit < pts[i-1].Hit-1e-6 {
			t.Errorf("hit not monotone in B at point %d: %g after %g", i, p.Hit, pts[i-1].Hit)
		}
	}
	if _, err := FeasibleByBufferStep(m, DefaultRates, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero step must fail")
	}
}

func TestMaxFeasibleStreamsAgainstLinearScan(t *testing.T) {
	m := workload.Movie{
		Name: "scan", Length: 60, Wait: 1, TargetHit: 0.5,
		Profile: workload.MixedProfile(dist.MustExponential(5), dist.MustExponential(15)),
	}
	got, err := MaxFeasibleStreams(m, DefaultRates)
	if err != nil {
		t.Fatal(err)
	}
	// Linear scan oracle.
	best := 0
	for n := 1; n <= 60; n++ {
		b := 60 - float64(n)
		hit, err := hitAt(context.Background(), m, DefaultRates, n, b)
		if err != nil {
			t.Fatal(err)
		}
		if hit >= 0.5 {
			best = n
		}
	}
	if got.N != best {
		t.Errorf("binary search %d vs scan %d", got.N, best)
	}
	if !got.Feasible || got.Hit < 0.5 {
		t.Errorf("returned point not feasible: %+v", got)
	}
}

func TestMaxFeasibleStreamsInfeasible(t *testing.T) {
	// Long pauses with half the movie buffered at n=1 cannot reach 0.95.
	m := workload.Movie{
		Name: "hopeless", Length: 60, Wait: 30, TargetHit: 0.95,
		Profile: vcr.Profile{PPAU: 1, DurPAU: dist.MustExponential(500), Think: dist.MustExponential(15)},
	}
	if _, err := MaxFeasibleStreams(m, DefaultRates); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestPureBatchingStreamsExample1(t *testing.T) {
	if got := PureBatchingStreams(workload.Example1Movies()); got != 1230 {
		t.Errorf("pure batching %d want 1230 (paper Example 1)", got)
	}
}

func TestMinBufferPlanExample1Shape(t *testing.T) {
	movies := workload.Example1Movies()
	plan, err := MinBufferPlan(movies, DefaultRates, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocs) != 3 {
		t.Fatalf("allocs %d", len(plan.Allocs))
	}
	var sumN int
	var sumB float64
	for i, a := range plan.Allocs {
		m := movies[i]
		if a.Hit < m.TargetHit {
			t.Errorf("%s: hit %.3f below target", a.Movie, a.Hit)
		}
		if math.Abs(a.B-(m.Length-float64(a.N)*m.Wait)) > 1e-9 {
			t.Errorf("%s: Eq. 2 violated", a.Movie)
		}
		sumN += a.N
		sumB += a.B
	}
	if sumN != plan.TotalStreams || math.Abs(sumB-plan.TotalBuffer) > 1e-9 {
		t.Error("plan totals inconsistent")
	}
	// The paper's headline: hundreds of streams saved versus the
	// 1230-stream pure-batching baseline at the cost of ~100 buffered
	// minutes.
	if plan.TotalStreams >= 1230 {
		t.Errorf("no stream savings: %d", plan.TotalStreams)
	}
	if saved := 1230 - plan.TotalStreams; saved < 300 {
		t.Errorf("savings %d streams implausibly small", saved)
	}
	if plan.TotalBuffer <= 0 || plan.TotalBuffer > 225 {
		t.Errorf("total buffer %.1f outside plausible range", plan.TotalBuffer)
	}
}

func TestMinBufferPlanStreamBudget(t *testing.T) {
	movies := workload.Example1Movies()
	unconstrained, err := MinBufferPlan(movies, DefaultRates, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := unconstrained.TotalStreams - 50
	plan, err := MinBufferPlan(movies, DefaultRates, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalStreams > budget {
		t.Errorf("budget violated: %d > %d", plan.TotalStreams, budget)
	}
	if plan.TotalBuffer <= unconstrained.TotalBuffer {
		t.Error("tighter stream budget must cost more buffer")
	}
	// The greedy sheds from the smallest-w movie (movie1, w=0.1):
	// the added buffer should be ≈ 50·0.1 = 5 minutes.
	added := plan.TotalBuffer - unconstrained.TotalBuffer
	if math.Abs(added-5) > 1e-6 {
		t.Errorf("added buffer %.3f want 5 (greedy by smallest w)", added)
	}
	for _, a := range plan.Allocs {
		if a.Hit < 0.5 {
			t.Errorf("%s: budgeted plan broke the hit target: %.3f", a.Movie, a.Hit)
		}
	}
	// Impossible budget.
	if _, err := MinBufferPlan(movies, DefaultRates, 2, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("budget below movie count: want ErrInfeasible, got %v", err)
	}
}

func TestMinBufferPlanBufferBudget(t *testing.T) {
	movies := workload.Example1Movies()
	plan, err := MinBufferPlan(movies, DefaultRates, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinBufferPlan(movies, DefaultRates, 0, plan.TotalBuffer/2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("halved buffer budget: want ErrInfeasible, got %v", err)
	}
	if _, err := MinBufferPlan(nil, DefaultRates, 0, 0); !errors.Is(err, ErrBadParam) {
		t.Error("empty catalog must fail")
	}
}

func TestHardwareCostModelExample2(t *testing.T) {
	// Paper Example 2: $700 disk at 5 MB/s, 4 Mbps MPEG-2, $25/MB memory
	// → Cb = $750/movie-minute, Cn = $70/stream, φ ≈ 11.
	cm, err := HardwareCostModel(700, 5, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cm.Cb-750) > 1e-9 {
		t.Errorf("Cb = %g want 750", cm.Cb)
	}
	if math.Abs(cm.Cn-70) > 1e-9 {
		t.Errorf("Cn = %g want 70", cm.Cn)
	}
	if phi := cm.Phi(); phi < 10 || phi > 11 {
		t.Errorf("phi = %g want ≈ 11", phi)
	}
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := HardwareCostModel(700, 1, 40, 25); !errors.Is(err, ErrBadParam) {
		t.Error("stream faster than disk must fail")
	}
	if _, err := HardwareCostModel(0, 5, 4, 25); !errors.Is(err, ErrBadParam) {
		t.Error("zero price must fail")
	}
}

func TestCostCurveShape(t *testing.T) {
	movies := workload.Example1Movies()
	curve, err := CostCurve(movies, DefaultRates, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 10 {
		t.Fatalf("curve too short: %d", len(curve))
	}
	// Stream totals strictly increase along the curve.
	for i := 1; i < len(curve); i++ {
		if curve[i].TotalStreams <= curve[i-1].TotalStreams {
			t.Fatalf("curve not ordered at %d", i)
		}
		if curve[i].TotalBuffer >= curve[i-1].TotalBuffer {
			t.Fatalf("buffer must fall as streams grow at %d", i)
		}
	}
	// At φ = 11 every movie has φ·w > 1, so cost decreases with more
	// streams and the optimum is the right end (paper: "the minimum cost
	// occurs when the number of I/O streams reaches its maximum feasible
	// value because the cost of memory buffers dominate").
	min11, err := MinCostPoint(curve)
	if err != nil {
		t.Fatal(err)
	}
	if min11.TotalStreams != curve[len(curve)-1].TotalStreams {
		t.Errorf("φ=11 optimum at %d streams, want right end %d",
			min11.TotalStreams, curve[len(curve)-1].TotalStreams)
	}
	// At φ = 3 removing movie-1 streams (w=0.1, φ·w = 0.3 < 1) pays, so
	// the optimum moves into the interior (Figure 9's migration).
	curve3, err := CostCurve(movies, DefaultRates, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	min3, err := MinCostPoint(curve3)
	if err != nil {
		t.Fatal(err)
	}
	if min3.TotalStreams >= min11.TotalStreams {
		t.Errorf("φ=3 optimum (%d streams) should sit left of φ=11's (%d)",
			min3.TotalStreams, min11.TotalStreams)
	}
}

func TestCostCurveThinning(t *testing.T) {
	movies := workload.Example1Movies()
	curve, err := CostCurve(movies, DefaultRates, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) > 52 {
		t.Errorf("thinned curve has %d points", len(curve))
	}
	full, err := CostCurve(movies, DefaultRates, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Thinned endpoints must match the full curve's.
	if curve[0] != full[0] || curve[len(curve)-1] != full[len(full)-1] {
		t.Error("thinning lost the endpoints")
	}
	if _, err := CostCurve(movies, DefaultRates, 0, 0); !errors.Is(err, ErrBadParam) {
		t.Error("phi=0 must fail")
	}
	if _, err := MinCostPoint(nil); !errors.Is(err, ErrBadParam) {
		t.Error("empty curve must fail")
	}
}

func TestPlanCostUsesBothPrices(t *testing.T) {
	cm := CostModel{Cb: 750, Cn: 70}
	p := Plan{TotalStreams: 602, TotalBuffer: 113.5}
	want := 750*113.5 + 70*602
	if got := cm.PlanCost(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("cost %g want %g", got, want)
	}
}

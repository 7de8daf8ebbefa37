package vodalloc

import (
	"net/http"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/httpapi"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// ----- Analytic model (paper §3) -----------------------------------------

// Config is a static-partitioning configuration: movie length L, total
// playback buffer B (movie-minutes), stream count N, and display rates.
type Config = analytic.Config

// Model evaluates the paper's hit-probability equations; build with
// NewModel.
type Model = analytic.Model

// Mix is the VCR workload mix of Eq. (22): per-operation probabilities
// and duration distributions.
type Mix = analytic.Mix

// Op identifies a VCR operation type.
type Op = analytic.Op

// Breakdown decomposes a hit probability into the paper's hit_w,
// hit_j^i and P(end) terms.
type Breakdown = analytic.Breakdown

// The three VCR operations.
const (
	FF  = analytic.FF
	RW  = analytic.RW
	PAU = analytic.PAU
)

// NewModel validates cfg and returns the analytic hit-probability model.
func NewModel(cfg Config) (*Model, error) { return analytic.New(cfg) }

// ConfigForWait builds a Config from a quality-of-service target: given
// movie length l, maximum wait w and stream count n, the buffer follows
// from Eq. (2) as B = l − n·w.
func ConfigForWait(l, w float64, n int, ratePB, rateFF, rateRW float64) (Config, error) {
	return analytic.FromWait(l, w, n, ratePB, rateFF, rateRW)
}

// PureBatchingStreams returns ⌈l/w⌉, the stream count pure batching
// needs for maximum wait w.
func PureBatchingStreams(l, w float64) int { return analytic.PureBatchingStreams(l, w) }

// ----- Duration distributions --------------------------------------------

// Distribution is a continuous probability distribution usable as a
// VCR-duration model f(x).
type Distribution = dist.Distribution

// NewExponential returns an exponential distribution with the given mean.
func NewExponential(mean float64) (Distribution, error) { return dist.NewExponential(mean) }

// NewGamma returns a gamma distribution with the given shape and scale
// (the paper's "skewed gamma, mean 8" is NewGamma(2, 4)).
func NewGamma(shape, scale float64) (Distribution, error) { return dist.NewGamma(shape, scale) }

// NewUniform returns a uniform distribution on [a, b].
func NewUniform(a, b float64) (Distribution, error) { return dist.NewUniform(a, b) }

// NewDeterministic returns a point mass at v.
func NewDeterministic(v float64) (Distribution, error) { return dist.NewDeterministic(v) }

// NewWeibull returns a Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) (Distribution, error) { return dist.NewWeibull(shape, scale) }

// NewEmpirical fits a distribution to observed durations (the paper's
// "obtained by statistics while the movie is displayed").
func NewEmpirical(samples []float64) (Distribution, error) { return dist.NewEmpirical(samples) }

// NewLognormal returns a log-normal distribution parameterized by the
// underlying normal's location and scale.
func NewLognormal(mu, sigma float64) (Distribution, error) { return dist.NewLognormal(mu, sigma) }

// NewLognormalFromMoments builds a log-normal with the given mean and
// coefficient of variation.
func NewLognormalFromMoments(mean, cv float64) (Distribution, error) {
	return dist.LognormalFromMoments(mean, cv)
}

// NewPareto returns a Pareto (type I) distribution with minimum xm and
// tail index alpha.
func NewPareto(xm, alpha float64) (Distribution, error) { return dist.NewPareto(xm, alpha) }

// Truncate restricts d to [lo, hi] and renormalizes — the direct way to
// build a duration density on [0, l].
func Truncate(d Distribution, lo, hi float64) (Distribution, error) {
	return dist.NewTruncated(d, lo, hi)
}

// ----- Viewer behaviour ----------------------------------------------------

// Profile describes interactive viewer behaviour for the simulator: the
// request mix, duration distributions and think time.
type Profile = vcr.Profile

// Rates carries the playback/FF/RW display rates.
type Rates = vcr.Rates

// MixedProfile returns the paper's §4 reference behaviour
// (P_FF = P_RW = 0.2, P_PAU = 0.6) with the given duration and
// think-time distributions.
func MixedProfile(dur, think Distribution) Profile { return workload.MixedProfile(dur, think) }

// ----- Simulator (paper §4) ------------------------------------------------

// SimConfig parameterizes one simulation run.
type SimConfig = sim.Config

// SimResult carries a run's measurements; SimResult.HitProbability is
// the empirical counterpart of Model.HitMix.
type SimResult = sim.Result

// Simulate runs the discrete-event VOD server simulator once.
func Simulate(cfg SimConfig) (*SimResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// ServerConfig parameterizes a multi-movie server run: several popular
// movies share the dedicated-stream pool and the buffer budget — the
// system the paper's §5 sizing question provisions.
type ServerConfig = sim.ServerConfig

// MovieSetup is one movie's deployment inside a ServerConfig.
type MovieSetup = sim.MovieSetup

// ServerResult carries a multi-movie run's per-movie and shared
// measurements.
type ServerResult = sim.ServerResult

// MovieResult is one movie's share of a ServerResult.
type MovieResult = sim.MovieResult

// SimulateServer runs the multi-movie VOD server simulator once.
func SimulateServer(cfg ServerConfig) (*ServerResult, error) {
	s, err := sim.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// ----- Sizing and pre-allocation (paper §5) --------------------------------

// Movie describes one title's length, wait target w, hit target P*, and
// viewer behaviour.
type Movie = workload.Movie

// Plan is a multi-movie buffer/stream pre-allocation.
type Plan = sizing.Plan

// Allocation is one movie's share of a plan.
type Allocation = sizing.Allocation

// FeasiblePoint is one (B, n, P(hit)) entry of a movie's feasible set.
type FeasiblePoint = sizing.Point

// CostModel prices buffer minutes (Cb) and I/O streams (Cn); φ = Cb/Cn.
type CostModel = sizing.CostModel

// CurvePoint is one point of a Figure-9 style cost curve.
type CurvePoint = sizing.CurvePoint

// SizingRates aliases the display-rate triple used by the sizing API.
type SizingRates = sizing.Rates

// DefaultRates matches the paper's experiments: FF and RW at 3× playback.
var DefaultRates = sizing.DefaultRates

// FeasibleSet enumerates a movie's (B, n) frontier at the given buffer
// step and marks the points meeting its hit target (Figure 8).
func FeasibleSet(m Movie, r SizingRates, step float64) ([]FeasiblePoint, error) {
	return sizing.FeasibleByBufferStep(m, r, step)
}

// PlanMinBuffer computes the minimum-buffer allocation meeting every
// movie's targets under optional stream/buffer budgets (0 = unbounded) —
// the paper's §5 optimization (Example 1).
func PlanMinBuffer(movies []Movie, r SizingRates, maxStreams int, maxBuffer float64) (Plan, error) {
	return sizing.MinBufferPlan(movies, r, maxStreams, maxBuffer)
}

// HardwareCostModel derives (Cb, Cn) from hardware prices as in
// Example 2 (disk dollars, disk MB/s, stream Mbps, memory $/MB).
func HardwareCostModel(diskCost, diskMBps, streamMbps, memPerMB float64) (CostModel, error) {
	return sizing.HardwareCostModel(diskCost, diskMBps, streamMbps, memPerMB)
}

// CostCurve traces system cost against total I/O streams for the catalog
// at price ratio phi (Figure 9).
func CostCurve(movies []Movie, r SizingRates, phi float64, maxPoints int) ([]CurvePoint, error) {
	return sizing.CostCurve(movies, r, phi, maxPoints)
}

// MinCostPoint returns the cheapest point of a cost curve — the optimal
// system sizing.
func MinCostPoint(pts []CurvePoint) (CurvePoint, error) { return sizing.MinCostPoint(pts) }

// Example1Movies returns the paper's §5 Example 1 three-movie catalog.
func Example1Movies() []Movie { return workload.Example1Movies() }

// ZipfWeights returns n popularity weights proportional to 1/rank^theta,
// normalized to sum to 1.
func ZipfWeights(n int, theta float64) ([]float64, error) { return workload.ZipfWeights(n, theta) }

// SplitRate apportions a total arrival rate over the catalog by
// normalized popularity.
func SplitRate(total float64, movies []Movie) ([]float64, error) {
	return workload.SplitRate(total, movies)
}

// NewHTTPHandler returns the JSON/HTTP service handler cmd/vodserverd
// serves, at its default limits: the /v1 model, sizing, simulation and
// cluster endpoints behind per-request deadlines, body limits, load
// shedding and a circuit breaker, plus /healthz, /readyz and /statusz.
// Mount it to embed the model in an existing process.
func NewHTTPHandler() http.Handler { return httpapi.New(httpapi.Options{}) }

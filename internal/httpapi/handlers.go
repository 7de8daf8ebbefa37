package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
	"vodalloc/internal/faults"
	"vodalloc/internal/resilience"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// maxSimHorizon bounds simulation requests so one call cannot pin the
// server arbitrarily long.
const maxSimHorizon = 50000

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 1 << 20

// maxStreamsPerMovie bounds n in service requests; the model's cost is
// linear in n and nothing physical exceeds this.
const maxStreamsPerMovie = 1 << 20

// newMux builds New's routing table with a body limit, an evaluator for
// the sizing endpoints, and a bulkhead and a circuit breaker on the
// simulation endpoints. Concurrent plan/curve requests share the
// evaluator's worker pool and memo cache, so load fans out across at
// most the configured budget regardless of request count. Every route
// answers 503 once its request deadline passes; a breaker-gated route
// does so inside breakerGate.
func newMux(maxBody int64, gate *resilience.Bulkhead, br *resilience.Breaker, eval *sizing.Evaluator, cc *ClusterCounters) *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(path string, h http.Handler) { mux.Handle(path, answerTimeout(h)) }
	handle("/v1/healthz", http.HandlerFunc(handleHealthz))
	handle("/v1/hit", jsonHandler(maxBody, handleHit))
	handle("/v1/plan", jsonHandler(maxBody, func(ctx context.Context, req PlanRequest) (PlanResponse, error) {
		return handlePlan(ctx, eval, req)
	}))
	handle("/v1/curve", jsonHandler(maxBody, func(ctx context.Context, req CurveRequest) (CurveResponse, error) {
		return handleCurve(ctx, eval, req)
	}))
	handle("/v1/reserve", jsonHandler(maxBody, handleReserve))
	handle("/v1/cluster/plan", jsonHandler(maxBody, func(ctx context.Context, req ClusterPlanRequest) (ClusterPlanResponse, error) {
		cc.notePlan()
		return handleClusterPlan(ctx, eval, req)
	}))
	for path, h := range map[string]http.Handler{
		"/v1/simulate":  jsonHandler(maxBody, handleSimulate),
		"/v1/replicate": jsonHandler(maxBody, handleReplicate),
		// Cluster simulation fans a Monte Carlo run out per node, so it
		// shares the simulation endpoints' admission control.
		"/v1/cluster/simulate": jsonHandler(maxBody, func(ctx context.Context, req ClusterSimulateRequest) (ClusterSimulateResponse, error) {
			cc.noteSimulate()
			return handleClusterSimulate(ctx, eval, req)
		}),
		// Churn drives a full control-plane simulation, so it shares the
		// same admission control as the other simulation endpoints.
		"/v1/cluster/churn": jsonHandler(maxBody, func(ctx context.Context, req ClusterChurnRequest) (ClusterChurnResponse, error) {
			cc.noteChurn()
			return handleClusterChurn(ctx, eval, cc, req)
		}),
	} {
		// The breaker sits outside the bulkhead so an open circuit
		// fast-fails without consuming an admission slot.
		mux.Handle(path, breakerGate(br, limitInflight(gate, h)))
	}
	return mux
}

// maxReplications bounds one replication request.
const maxReplications = 64

// jsonHandler adapts a typed POST handler. fn receives the request
// context; a fn error that reflects the context's own cancellation gets
// no response body — on timeout http.TimeoutHandler already wrote the
// 503, and on client cancellation nobody is listening — while every
// other error is the caller's fault and maps to 400.
func jsonHandler[Req any, Resp any](maxBody int64, fn func(ctx context.Context, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %v", err))
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			if r.Context().Err() != nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// toConfig materializes a ConfigJSON with paper-default rates.
func (c ConfigJSON) toConfig() (analytic.Config, error) {
	if c.N > maxStreamsPerMovie {
		return analytic.Config{}, fmt.Errorf("n=%d exceeds the service cap %d", c.N, maxStreamsPerMovie)
	}
	cfg := analytic.Config{
		L: c.L, B: c.B, N: c.N,
		RatePB: c.RatePB, RateFF: c.RateFF, RateRW: c.RateRW,
	}
	if cfg.RatePB == 0 {
		cfg.RatePB = 1
	}
	if cfg.RateFF == 0 {
		cfg.RateFF = 3 * cfg.RatePB
	}
	if cfg.RateRW == 0 {
		cfg.RateRW = 3 * cfg.RatePB
	}
	return cfg, cfg.Validate()
}

// toProfile materializes and validates a ProfileJSON, with the
// service's duration default "gamma:2:4".
func (p ProfileJSON) toProfile() (vcr.Profile, error) {
	profile, err := workload.ProfileSpec(p).Profile("gamma:2:4")
	if err != nil {
		return vcr.Profile{}, err
	}
	return profile, profile.Validate()
}

func specsToMovies(specs []workload.MovieSpec) ([]workload.Movie, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("no movies in request")
	}
	movies := make([]workload.Movie, 0, len(specs))
	for _, s := range specs {
		m, err := s.ToMovie()
		if err != nil {
			return nil, err
		}
		movies = append(movies, m)
	}
	return movies, nil
}

func handleHit(ctx context.Context, req HitRequest) (HitResponse, error) {
	cfg, err := req.Config.toConfig()
	if err != nil {
		return HitResponse{}, err
	}
	profile, err := req.Profile.toProfile()
	if err != nil {
		return HitResponse{}, err
	}
	model, err := analytic.New(cfg)
	if err != nil {
		return HitResponse{}, err
	}
	resp := HitResponse{Wait: cfg.Wait()}
	if resp.HitFF, err = model.HitFFCtx(ctx, profile.DurFF); err != nil {
		return HitResponse{}, err
	}
	if resp.HitRW, err = model.HitRWCtx(ctx, profile.DurRW); err != nil {
		return HitResponse{}, err
	}
	if resp.HitPAU, err = model.HitPAUCtx(ctx, profile.DurPAU); err != nil {
		return HitResponse{}, err
	}
	mix := sizing.MixFromProfile(profile)
	if err := mix.Validate(); err != nil {
		return HitResponse{}, err
	}
	resp.Hit = mix.Weigh(resp.HitFF, resp.HitRW, resp.HitPAU)
	if req.Breakdown {
		resp.Breakdowns = map[string]BreakdownJSON{}
		for op, d := range map[analytic.Op]dist.Distribution{
			analytic.FF: profile.DurFF, analytic.RW: profile.DurRW, analytic.PAU: profile.DurPAU,
		} {
			bd := model.BreakdownOf(op, d)
			resp.Breakdowns[op.String()] = BreakdownJSON{
				Within: bd.Within, Jumps: bd.Jumps, End: bd.End, Total: bd.Total,
			}
		}
	}
	return resp, nil
}

func handlePlan(ctx context.Context, eval *sizing.Evaluator, req PlanRequest) (PlanResponse, error) {
	movies, err := specsToMovies(req.Movies)
	if err != nil {
		return PlanResponse{}, err
	}
	plan, err := eval.MinBufferPlanCtx(ctx, movies, sizing.DefaultRates, req.MaxStreams, req.MaxBuffer)
	if err != nil {
		return PlanResponse{}, err
	}
	resp := PlanResponse{
		TotalStreams: plan.TotalStreams,
		TotalBuffer:  plan.TotalBuffer,
		PureBatching: sizing.PureBatchingStreams(movies),
	}
	for _, a := range plan.Allocs {
		resp.Allocs = append(resp.Allocs, AllocJSON{
			Movie: a.Movie, N: a.N, B: a.B, Hit: a.Hit, Wait: a.Wait,
		})
	}
	return resp, nil
}

func handleCurve(ctx context.Context, eval *sizing.Evaluator, req CurveRequest) (CurveResponse, error) {
	movies, err := specsToMovies(req.Movies)
	if err != nil {
		return CurveResponse{}, err
	}
	maxPts := req.MaxPoints
	if maxPts == 0 {
		maxPts = 100
	}
	pts, err := eval.CostCurveCtx(ctx, movies, sizing.DefaultRates, req.Phi, maxPts)
	if err != nil {
		return CurveResponse{}, err
	}
	min, err := sizing.MinCostPoint(pts)
	if err != nil {
		return CurveResponse{}, err
	}
	resp := CurveResponse{Min: curvePoint(min)}
	for _, p := range pts {
		resp.Points = append(resp.Points, curvePoint(p))
	}
	return resp, nil
}

func curvePoint(p sizing.CurvePoint) CurvePointJSON {
	return CurvePointJSON{
		TotalStreams: p.TotalStreams,
		TotalBuffer:  p.TotalBuffer,
		RelativeCost: p.RelativeCost,
	}
}

func handleReserve(ctx context.Context, req ReserveRequest) (ReserveResponse, error) {
	if err := ctx.Err(); err != nil {
		return ReserveResponse{}, err
	}
	cfg, err := req.Config.toConfig()
	if err != nil {
		return ReserveResponse{}, err
	}
	profile, err := req.Profile.toProfile()
	if err != nil {
		return ReserveResponse{}, err
	}
	est, err := sizing.EstimateDedicated(cfg, profile, req.Lambda)
	if err != nil {
		return ReserveResponse{}, err
	}
	z := req.Z
	if z == 0 {
		z = 2
	}
	return ReserveResponse{
		Hit:          est.Hit,
		OpsPerMinute: est.OpsPerMinute,
		Phase1:       est.Phase1,
		MissHold:     est.MissHold,
		Total:        est.Total,
		Reserve:      est.ReserveFor(z),
	}, nil
}

// defaultSpan applies the service's run-length defaults: horizon 0 is
// 3000 minutes and warmup 0 is horizon/10.
func defaultSpan(horizon, warmup float64) (float64, float64) {
	if horizon == 0 {
		horizon = 3000
	}
	if warmup == 0 {
		warmup = horizon / 10
	}
	return horizon, warmup
}

// simConfig maps the request onto a simulator config with the service's
// defaults, capping the horizon summed over runs replications, and
// returns the analytic config of the model prediction beside it.
func (r SimulateRequest) simConfig(runs int) (cfg sim.Config, model analytic.Config, err error) {
	if model, err = r.Config.toConfig(); err != nil {
		return cfg, model, err
	}
	profile, err := r.Profile.toProfile()
	if err != nil {
		return cfg, model, err
	}
	horizon, warmup := defaultSpan(r.Horizon, r.Warmup)
	if total := horizon * float64(runs); total > maxSimHorizon {
		if runs == 1 {
			return cfg, model, fmt.Errorf("horizon %g exceeds the service cap %d", horizon, maxSimHorizon)
		}
		return cfg, model, fmt.Errorf("replications × horizon %g exceeds the service cap %d", total, maxSimHorizon)
	}
	sched, err := faults.ParseSchedule(r.Faults, horizon)
	if err != nil {
		return cfg, model, err
	}
	return sim.Config{
		L: model.L, B: model.B, N: model.N,
		Rates:          vcr.Rates{PB: model.RatePB, FF: model.RateFF, RW: model.RateRW},
		ArrivalRate:    r.Lambda,
		Profile:        profile,
		Horizon:        horizon,
		Warmup:         warmup,
		Seed:           r.Seed,
		Piggyback:      r.Piggyback,
		Slew:           r.Slew,
		TotalStreams:   r.TotalStreams,
		Faults:         sched,
		Engine:         sim.Engine(r.Engine),
		FluidThreshold: r.FluidThreshold,
		ParticleRate:   r.ParticleRate,
	}, model, nil
}

// predictHit is the analytic model's mixed hit probability for cfg
// under profile.
func predictHit(ctx context.Context, cfg analytic.Config, profile vcr.Profile) (float64, error) {
	m, err := analytic.New(cfg)
	if err != nil {
		return 0, err
	}
	return m.HitMixCtx(ctx, sizing.MixFromProfile(profile))
}

func faultSummary(fs sim.FaultStats) *FaultSummaryJSON {
	if !fs.Any() {
		return nil
	}
	return &FaultSummaryJSON{
		Availability:     fs.Availability,
		DegradedFraction: fs.DegradedFraction,
		ShedRate:         fs.ShedRate,
		ForcedMissRate:   fs.ForcedMissRate,
		DiskFailures:     fs.DiskFailures,
		DiskRepairs:      fs.DiskRepairs,
		PartitionsLost:   fs.PartitionsLost,
		Preempted:        fs.Preempted,
		Shed:             fs.Shed,
		ForcedMisses:     fs.ForcedMisses,
		Recovered:        fs.Recovered,
	}
}

func handleSimulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	cfg, model, err := req.simConfig(1)
	if err != nil {
		return SimulateResponse{}, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return SimulateResponse{}, err
	}
	res, err := s.RunCtx(ctx)
	if err != nil {
		return SimulateResponse{}, err
	}
	modelHit, err := predictHit(ctx, model, cfg.Profile)
	if err != nil {
		return SimulateResponse{}, err
	}
	lo, hi := res.Hits.Wilson95()
	resp := SimulateResponse{
		Hit:            res.HitProbability(),
		HitCI:          [2]float64{lo, hi},
		Resumes:        res.Hits.N(),
		HitByKind:      map[string]float64{},
		MeanWait:       res.Waits.Mean(),
		MaxWait:        res.MaxWait,
		AvgDedicated:   res.AvgDedicated,
		PeakDedicated:  res.PeakDedicated,
		AvgBatch:       res.AvgBatch,
		Arrivals:       res.Arrivals,
		Departures:     res.Departures,
		Merges:         res.Merges,
		ModelHit:       modelHit,
		ModelAgreement: math.Abs(modelHit - res.HitProbability()),
		Faults:         faultSummary(res.Faults),
	}
	for k, p := range res.HitsByKind {
		if p.N() > 0 {
			resp.HitByKind[k.String()] = p.Estimate()
		}
	}
	return resp, nil
}

func handleReplicate(ctx context.Context, req ReplicateRequest) (ReplicateResponse, error) {
	if req.Replications < 2 || req.Replications > maxReplications {
		return ReplicateResponse{}, fmt.Errorf("replications %d outside [2, %d]", req.Replications, maxReplications)
	}
	cfg, model, err := req.simConfig(req.Replications)
	if err != nil {
		return ReplicateResponse{}, err
	}
	rep, err := sim.ReplicateCtx(ctx, cfg, req.Replications)
	if err != nil {
		return ReplicateResponse{}, err
	}
	modelHit, err := predictHit(ctx, model, cfg.Profile)
	if err != nil {
		return ReplicateResponse{}, err
	}
	return ReplicateResponse{
		PooledHit:    rep.HitProbability(),
		PooledTrials: rep.PooledHits.N(),
		PerRun:       rep.PerRun,
		CI95:         rep.HitCI95(),
		AvgDedicated: rep.AvgDedicated.Mean(),
		AvgBatch:     rep.AvgBatch.Mean(),
		MaxWait:      rep.MaxWait,
		ModelHit:     modelHit,
	}, nil
}

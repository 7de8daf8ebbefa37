// Package httpapi exposes the model, the sizing optimizer, the reserve
// estimator and the simulator over a JSON/HTTP interface, so the
// reproduction is usable from any language. All endpoints are POST with
// JSON bodies (GET /v1/healthz excepted); errors return status 400 with
// {"error": "..."}.
//
// Endpoints:
//
//	POST /v1/hit      — hit probabilities for one configuration
//	POST /v1/plan     — minimum-buffer multi-movie pre-allocation
//	POST /v1/curve    — a Figure-9 cost curve
//	POST /v1/reserve  — dedicated-stream reserve estimate
//	POST /v1/simulate — one discrete-event simulation run
//	POST /v1/replicate — R independent replications with pooled CIs
//	POST /v1/cluster/plan — multi-node placement
//	POST /v1/cluster/simulate — cluster simulation with node faults
//	POST /v1/cluster/churn — time-varying workload with the live
//	     rebalancing controller (flash crowds, budgeted migrations)
//	GET  /v1/healthz  — liveness probe (legacy path)
//
// The hardened stack built by New additionally serves, outside the
// timeout/drain gates:
//
//	GET  /healthz — liveness probe
//	GET  /readyz  — readiness probe (503 during startup and drain)
//	GET  /statusz — introspection gauges (goroutines, in-flight, pools)
package httpapi

import (
	"vodalloc/internal/workload"
)

// ConfigJSON is the static-partitioning configuration in requests.
// Rates default to the paper's (1, 3, 3) when zero.
type ConfigJSON struct {
	L      float64 `json:"l"`
	B      float64 `json:"b"`
	N      int     `json:"n"`
	RatePB float64 `json:"ratePB,omitempty"`
	RateFF float64 `json:"rateFF,omitempty"`
	RateRW float64 `json:"rateRW,omitempty"`
}

// ProfileJSON is the VCR behaviour in requests (see
// workload.ProfileSpec). The probabilities default to the paper's
// 0.2/0.2/0.6 mix when all zero, Dur to "gamma:2:4" and Think to
// "exp:15".
type ProfileJSON workload.ProfileSpec

// HitRequest asks for the hit probabilities of one configuration.
type HitRequest struct {
	Config  ConfigJSON  `json:"config"`
	Profile ProfileJSON `json:"profile"`
	// Breakdown additionally returns the hit_w/hit_j/P(end) terms.
	Breakdown bool `json:"breakdown,omitempty"`
}

// HitResponse carries the model evaluation.
type HitResponse struct {
	HitFF  float64 `json:"hitFF"`
	HitRW  float64 `json:"hitRW"`
	HitPAU float64 `json:"hitPAU"`
	Hit    float64 `json:"hit"`
	Wait   float64 `json:"maxWait"`
	// Breakdowns are present when requested, keyed FF/RW/PAU.
	Breakdowns map[string]BreakdownJSON `json:"breakdowns,omitempty"`
}

// BreakdownJSON is the per-term decomposition.
type BreakdownJSON struct {
	Within float64   `json:"within"`
	Jumps  []float64 `json:"jumps"`
	End    float64   `json:"end"`
	Total  float64   `json:"total"`
}

// PlanRequest asks for a minimum-buffer pre-allocation.
type PlanRequest struct {
	Movies     []workload.MovieSpec `json:"movies"`
	MaxStreams int                  `json:"maxStreams,omitempty"`
	MaxBuffer  float64              `json:"maxBuffer,omitempty"`
}

// PlanResponse carries the plan.
type PlanResponse struct {
	Allocs       []AllocJSON `json:"allocs"`
	TotalStreams int         `json:"totalStreams"`
	TotalBuffer  float64     `json:"totalBuffer"`
	PureBatching int         `json:"pureBatchingStreams"`
}

// AllocJSON is one movie's allocation.
type AllocJSON struct {
	Movie string  `json:"movie"`
	N     int     `json:"n"`
	B     float64 `json:"b"`
	Hit   float64 `json:"hit"`
	Wait  float64 `json:"wait"`
}

// CurveRequest asks for a cost curve.
type CurveRequest struct {
	Movies    []workload.MovieSpec `json:"movies"`
	Phi       float64              `json:"phi"`
	MaxPoints int                  `json:"maxPoints,omitempty"`
}

// CurveResponse carries the curve and its optimum.
type CurveResponse struct {
	Points []CurvePointJSON `json:"points"`
	Min    CurvePointJSON   `json:"min"`
}

// CurvePointJSON is one curve sample.
type CurvePointJSON struct {
	TotalStreams int     `json:"totalStreams"`
	TotalBuffer  float64 `json:"totalBuffer"`
	RelativeCost float64 `json:"relativeCost"`
}

// ReserveRequest asks for a dedicated-stream reserve estimate.
type ReserveRequest struct {
	Config  ConfigJSON  `json:"config"`
	Profile ProfileJSON `json:"profile"`
	Lambda  float64     `json:"lambda"`
	// Z is the sizing quantile multiplier (default 2).
	Z float64 `json:"z,omitempty"`
}

// ReserveResponse carries the estimate.
type ReserveResponse struct {
	Hit          float64 `json:"hit"`
	OpsPerMinute float64 `json:"opsPerMinute"`
	Phase1       float64 `json:"phase1"`
	MissHold     float64 `json:"missHold"`
	Total        float64 `json:"total"`
	Reserve      int     `json:"reserve"`
}

// SimulateRequest asks for one simulation run.
type SimulateRequest struct {
	Config    ConfigJSON  `json:"config"`
	Profile   ProfileJSON `json:"profile"`
	Lambda    float64     `json:"lambda"`
	Horizon   float64     `json:"horizon,omitempty"` // default 3000, capped
	Warmup    float64     `json:"warmup,omitempty"`  // default horizon/10
	Seed      int64       `json:"seed,omitempty"`
	Piggyback bool        `json:"piggyback,omitempty"`
	Slew      float64     `json:"slew,omitempty"`
	// TotalStreams caps the shared I/O-stream pool (0 = uncapped);
	// Faults is a fault schedule in faults.Parse syntax, or
	// "rand:seed:mtbf:mttr:disks" for a seeded random schedule.
	TotalStreams int    `json:"totalStreams,omitempty"`
	Faults       string `json:"faults,omitempty"`
	// Engine selects the simulation backend ("des", "fluid" or "hybrid";
	// empty = des); FluidThreshold is the hybrid popularity cut and
	// ParticleRate the fluid shadow-viewer sampling rate.
	Engine         string  `json:"engine,omitempty"`
	FluidThreshold float64 `json:"fluidThreshold,omitempty"`
	ParticleRate   float64 `json:"particleRate,omitempty"`
}

// SimulateResponse summarizes the run.
type SimulateResponse struct {
	Hit            float64            `json:"hit"`
	HitCI          [2]float64         `json:"hitCI"`
	Resumes        uint64             `json:"resumes"`
	HitByKind      map[string]float64 `json:"hitByKind"`
	MeanWait       float64            `json:"meanWait"`
	MaxWait        float64            `json:"maxWait"`
	AvgDedicated   float64            `json:"avgDedicated"`
	PeakDedicated  int                `json:"peakDedicated"`
	AvgBatch       float64            `json:"avgBatch"`
	Arrivals       uint64             `json:"arrivals"`
	Departures     uint64             `json:"departures"`
	Merges         uint64             `json:"merges"`
	ModelHit       float64            `json:"modelHit"`
	ModelAgreement float64            `json:"modelAbsError"`
	// Faults is present when the run saw fault or degraded-mode activity.
	Faults *FaultSummaryJSON `json:"faults,omitempty"`
}

// FaultSummaryJSON summarizes fault-injection and degraded-mode
// accounting for a simulated run.
type FaultSummaryJSON struct {
	Availability     float64 `json:"availability"`
	DegradedFraction float64 `json:"degradedFraction"`
	ShedRate         float64 `json:"shedRate"`
	ForcedMissRate   float64 `json:"forcedMissRate"`
	DiskFailures     uint64  `json:"diskFailures"`
	DiskRepairs      uint64  `json:"diskRepairs"`
	PartitionsLost   uint64  `json:"partitionsLost"`
	Preempted        uint64  `json:"preempted"`
	Shed             uint64  `json:"shed"`
	ForcedMisses     uint64  `json:"forcedMisses"`
	Recovered        uint64  `json:"recovered"`
}

// ReplicateRequest asks for R independent replications of a simulation.
type ReplicateRequest struct {
	SimulateRequest
	Replications int `json:"replications"`
}

// ReplicateResponse summarizes the replication study.
type ReplicateResponse struct {
	PooledHit    float64   `json:"pooledHit"`
	PooledTrials uint64    `json:"pooledTrials"`
	PerRun       []float64 `json:"perRun"`
	// CI95 is the replication-based half-width of the hit estimate.
	CI95         float64 `json:"ci95"`
	AvgDedicated float64 `json:"avgDedicated"`
	AvgBatch     float64 `json:"avgBatch"`
	MaxWait      float64 `json:"maxWait"`
	ModelHit     float64 `json:"modelHit"`
}

// StatusResponse is the /statusz introspection snapshot: the gauges the
// chaos harness asserts its no-leak invariants on.
type StatusResponse struct {
	Goroutines int  `json:"goroutines"`
	Ready      bool `json:"ready"`
	Draining   bool `json:"draining"`
	// Inflight counts API requests currently in the hardened stack.
	Inflight int `json:"inflight"`
	// SimInflight/SimCap are the simulation bulkhead's occupancy.
	SimInflight int `json:"simInflight"`
	SimCap      int `json:"simCap"`
	// WorkerTokens/WorkerCap are the shared sizing worker pool's occupancy.
	WorkerTokens int `json:"workerTokens"`
	WorkerCap    int `json:"workerCap"`
	// Breaker is the simulation circuit state: closed, open, or half-open.
	Breaker string `json:"breaker"`
	// Cache is the sizing evaluator's memo-cache snapshot.
	Cache CacheStatus `json:"cache"`
	// Cluster counts requests into the cluster endpoints.
	Cluster ClusterStatus `json:"cluster"`
}

// CacheStatus describes the sizing evaluator's memo cache on /statusz:
// live traffic gauges plus the persistence outcomes the serving binary
// recorded. Load and Save are human-readable ("loaded 412 entries",
// "error: …", or "none"); both are empty when the binary runs without a
// cache file.
type CacheStatus struct {
	Entries uint64 `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Load    string `json:"load,omitempty"`
	Save    string `json:"save,omitempty"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

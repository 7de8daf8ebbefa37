package httpapi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vodalloc/internal/cluster"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// maxClusterNodes bounds one cluster request's node count.
const maxClusterNodes = 64

// maxZipfMovies bounds a generated catalog: sizing is per-movie work.
const maxZipfMovies = 256

// maxNodeDisks bounds the per-node disk count of a churn request.
const maxNodeDisks = 64

// ClusterCounters tallies the cluster endpoints' request counts for
// /statusz, so the new routes are observable from day one. Safe for
// concurrent use.
type ClusterCounters struct {
	plan     atomic.Uint64
	simulate atomic.Uint64
	churn    atomic.Uint64
	// mu guards the last-churn gauges: the most recent successful churn
	// run's headline numbers, surfaced on /statusz so an operator can
	// see what the control plane last did without re-running it.
	mu   sync.Mutex
	last *ChurnLastRun
}

// notePlan and noteSimulate record one request; a nil receiver (the
// bare NewMux, which has no /statusz) drops the count.
func (c *ClusterCounters) notePlan() {
	if c != nil {
		c.plan.Add(1)
	}
}

func (c *ClusterCounters) noteSimulate() {
	if c != nil {
		c.simulate.Add(1)
	}
}

func (c *ClusterCounters) noteChurn() {
	if c != nil {
		c.churn.Add(1)
	}
}

// noteChurnResult publishes a completed churn run's gauges.
func (c *ClusterCounters) noteChurnResult(last ChurnLastRun) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.last = &last
	c.mu.Unlock()
}

// Snapshot returns the current counts.
func (c *ClusterCounters) Snapshot() ClusterStatus {
	if c == nil {
		return ClusterStatus{}
	}
	c.mu.Lock()
	last := c.last
	if last != nil {
		cp := *last
		last = &cp
	}
	c.mu.Unlock()
	return ClusterStatus{
		PlanRequests:     c.plan.Load(),
		SimulateRequests: c.simulate.Load(),
		ChurnRequests:    c.churn.Load(),
		LastChurn:        last,
	}
}

// ClusterStatus is the /statusz view of the cluster endpoints.
type ClusterStatus struct {
	PlanRequests     uint64 `json:"planRequests"`
	SimulateRequests uint64 `json:"simulateRequests"`
	ChurnRequests    uint64 `json:"churnRequests"`
	// LastChurn is the most recent successful churn run (nil before
	// the first one).
	LastChurn *ChurnLastRun `json:"lastChurn,omitempty"`
}

// ChurnLastRun is the /statusz digest of the latest churn simulation.
type ChurnLastRun struct {
	Availability      float64 `json:"availability"`
	FloorAvailability float64 `json:"floorAvailability"`
	MigrationMB       float64 `json:"migrationMB"`
	TimeToConverge    float64 `json:"timeToConverge"`
	PeakLevel         string  `json:"peakLevel"`
	// Quarantines and Hedges carry the gray-resilience counters of the
	// latest run (zero when it ran without gray faults).
	Quarantines uint64 `json:"quarantines"`
	Hedges      uint64 `json:"hedges"`
	// Health-aware control-plane counters of the latest run: completed
	// evacuations off dwelling quarantined nodes, hedges refused by the
	// token bucket, and disk-granular quarantines.
	Evacuations     int    `json:"evacuations"`
	HedgeDenied     uint64 `json:"hedgeDenied"`
	DiskQuarantines uint64 `json:"diskQuarantines"`
}

// ClusterPlanRequest asks for a multi-node placement. The catalog is
// either explicit (movies) or generated (zipfMovies/zipfTheta).
type ClusterPlanRequest struct {
	Movies []workload.MovieSpec `json:"movies,omitempty"`
	// ZipfMovies generates an N-movie Zipf catalog when Movies is
	// empty; ZipfTheta defaults to 0.8.
	ZipfMovies int     `json:"zipfMovies,omitempty"`
	ZipfTheta  float64 `json:"zipfTheta,omitempty"`
	// Nodes is the node count; NodeStreams/NodeBuffer fix each node's
	// (n_s, B_s) budget, or both zero auto-sizes with Headroom slack
	// (default 1.3).
	Nodes       int     `json:"nodes"`
	NodeStreams int     `json:"nodeStreams,omitempty"`
	NodeBuffer  float64 `json:"nodeBuffer,omitempty"`
	Headroom    float64 `json:"headroom,omitempty"`
	// Replicas copies each of the HotMovies most popular movies
	// (0 hot = all, when replicas > 1).
	Replicas  int `json:"replicas,omitempty"`
	HotMovies int `json:"hotMovies,omitempty"`
}

// ClusterAssignmentJSON is one placed movie copy.
type ClusterAssignmentJSON struct {
	Movie   string  `json:"movie"`
	Node    string  `json:"node"`
	Replica int     `json:"replica"`
	N       int     `json:"n"`
	B       float64 `json:"b"`
}

// ClusterNodeJSON is one node's budget and placed load.
type ClusterNodeJSON struct {
	Node       string  `json:"node"`
	MaxStreams int     `json:"maxStreams"`
	MaxBuffer  float64 `json:"maxBuffer"`
	Streams    int     `json:"streams"`
	Buffer     float64 `json:"buffer"`
	Movies     int     `json:"movies"`
}

// ClusterPlanResponse carries the placement.
type ClusterPlanResponse struct {
	Nodes           []ClusterNodeJSON       `json:"nodes"`
	Assignments     []ClusterAssignmentJSON `json:"assignments"`
	TotalStreams    int                     `json:"totalStreams"`
	TotalBuffer     float64                 `json:"totalBuffer"`
	DroppedReplicas int                     `json:"droppedReplicas,omitempty"`
	RefineMoves     int                     `json:"refineMoves,omitempty"`
}

// clusterRun is the plan plus the run parameters both cluster
// simulations take.
type clusterRun struct {
	ClusterPlanRequest
	// Lambda is the cluster-wide arrival rate, split by popularity.
	Lambda  float64 `json:"lambda"`
	Horizon float64 `json:"horizon,omitempty"` // default 3000; horizon×nodes capped
	Warmup  float64 `json:"warmup,omitempty"`  // default horizon/10
	Seed    int64   `json:"seed,omitempty"`
	// Fail schedules node outages: "node0@400,node2@500-1500"
	// (permanent without an end time).
	Fail string `json:"fail,omitempty"`
}

// ClusterSimulateRequest plans and then simulates the cluster.
type ClusterSimulateRequest struct {
	clusterRun
	// Engine selects every node simulation's backend ("des", "fluid" or
	// "hybrid"; empty = des); FluidThreshold is the hybrid popularity
	// cut. Outage-carrying nodes always run DES.
	Engine         string  `json:"engine,omitempty"`
	FluidThreshold float64 `json:"fluidThreshold,omitempty"`
}

// ClusterSimNodeJSON is one node's simulated outcome.
type ClusterSimNodeJSON struct {
	Node         string  `json:"node"`
	Movies       int     `json:"movies"`
	Streams      int     `json:"streams"`
	Buffer       float64 `json:"buffer"`
	Hit          float64 `json:"hit"`
	Availability float64 `json:"availability"`
	DiskFailures uint64  `json:"diskFailures,omitempty"`
	Faulted      bool    `json:"faulted,omitempty"`
}

// ClusterSimMovieJSON is one movie's cluster-level outcome.
type ClusterSimMovieJSON struct {
	Movie        string  `json:"movie"`
	Replicas     int     `json:"replicas"`
	Arrivals     uint64  `json:"arrivals"`
	Routed       uint64  `json:"routed"`
	Shed         uint64  `json:"shed"`
	Failovers    uint64  `json:"failovers"`
	Availability float64 `json:"availability"`
	Hit          float64 `json:"hit"`
}

// ClusterSimulateResponse merges the per-node runs.
type ClusterSimulateResponse struct {
	Hit          float64               `json:"hit"`
	Availability float64               `json:"availability"`
	ShedRate     float64               `json:"shedRate"`
	Rebalances   uint64                `json:"rebalances"`
	Arrivals     uint64                `json:"arrivals"`
	Routed       uint64                `json:"routed"`
	Shed         uint64                `json:"shed"`
	Nodes        []ClusterSimNodeJSON  `json:"nodes"`
	Movies       []ClusterSimMovieJSON `json:"movies"`
}

// ClusterChurnRequest plans the cluster and then drives a time-varying
// workload against it with the live rebalancing controller (or with the
// placement frozen, for a baseline). Churn runs no per-node simulations,
// so it takes no engine settings: an "engine" or "fluidThreshold" field
// is refused as unknown.
type ClusterChurnRequest struct {
	clusterRun
	// Flash schedules flash crowds: "m01@300:4" or
	// "m01@300:4:10:60:30" (movie@at:peak[:ramp[:hold[:decay]]]).
	Flash string `json:"flash,omitempty"`
	// DiurnalPeriod/DiurnalAmp add a sinusoidal rate swing.
	DiurnalPeriod float64 `json:"diurnalPeriod,omitempty"`
	DiurnalAmp    float64 `json:"diurnalAmp,omitempty"`
	// BudgetMB caps total migration traffic (0 = unlimited).
	BudgetMB float64 `json:"budgetMB,omitempty"`
	// Interval is the controller cadence in minutes (0 = default).
	Interval float64 `json:"interval,omitempty"`
	// Frozen disables the controller: the placement never changes.
	Frozen bool `json:"frozen,omitempty"`
	// Window is the availability-floor window in minutes (0 = 60).
	Window float64 `json:"window,omitempty"`
	// Gray schedules gray faults:
	// "slow:node0@300-700:12,brownout:node2@400-800:0.4"
	// (kind:node@start[-end]:factor; kinds slow|jitter|brownout).
	Gray string `json:"gray,omitempty"`
	// Policy picks the routing policy under gray faults:
	// blind|health|hedge (default blind).
	Policy string `json:"policy,omitempty"`
	// StarveWait counts admitted waits above this many minutes as
	// starved (0 = default 8).
	StarveWait float64 `json:"starveWait,omitempty"`
	// EvacuateDwell drains replicas off nodes stuck in Quarantine
	// longer than this many minutes (0 = off; needs the controller).
	EvacuateDwell float64 `json:"evacuateDwell,omitempty"`
	// HedgeBudget caps hedged dispatch with a token bucket of this
	// burst size, refilled at a rate scaled by fleet-wide health
	// (0 = unlimited).
	HedgeBudget float64 `json:"hedgeBudget,omitempty"`
	// DiskHealth tracks health and quarantines at disk granularity.
	DiskHealth bool `json:"diskHealth,omitempty"`
	// NodeDisks gives every planned node this many disks, addressable
	// in gray specs as "slow:node0:d1@..." (0 = 1 disk).
	NodeDisks int `json:"nodeDisks,omitempty"`
}

// ClusterChurnResponse reports the run's availability, typed sheds and
// the controller's activity.
type ClusterChurnResponse struct {
	Arrivals          uint64  `json:"arrivals"`
	Admitted          uint64  `json:"admitted"`
	Availability      float64 `json:"availability"`
	FloorAvailability float64 `json:"floorAvailability"`
	Hit               float64 `json:"hit"`
	ShedNoReplica     uint64  `json:"shedNoReplica"`
	ShedSaturated     uint64  `json:"shedSaturated"`
	ShedDegraded      uint64  `json:"shedDegraded"`
	Failovers         uint64  `json:"failovers"`
	ReplicaAdds       int     `json:"replicaAdds"`
	ReplicaDrops      int     `json:"replicaDrops"`
	MigrationsStarted int     `json:"migrationsStarted"`
	MigrationMB       float64 `json:"migrationMB"`
	BudgetExhausted   bool    `json:"budgetExhausted"`
	PeakLevel         string  `json:"peakLevel"`
	// TimeToConverge is minutes from the last flash's end to controller
	// quiescence (-1 when not measured).
	TimeToConverge float64 `json:"timeToConverge"`
	// Gray-resilience measurements, present only when the run had gray
	// faults or a non-blind routing policy.
	Starved     uint64  `json:"starved,omitempty"`
	WaitP50     float64 `json:"waitP50,omitempty"`
	WaitP99     float64 `json:"waitP99,omitempty"`
	WaitMax     float64 `json:"waitMax,omitempty"`
	Hedges      uint64  `json:"hedges,omitempty"`
	HedgeWins   uint64  `json:"hedgeWins,omitempty"`
	HedgeDenied uint64  `json:"hedgeDenied,omitempty"`
	Probes      uint64  `json:"probes,omitempty"`
	Quarantines uint64  `json:"quarantines,omitempty"`
	Restores    uint64  `json:"restores,omitempty"`
	// Disk-granular health counters (present only with diskHealth).
	DiskQuarantines uint64 `json:"diskQuarantines,omitempty"`
	DiskRestores    uint64 `json:"diskRestores,omitempty"`
	// Evacuations counts replicas the controller drained off nodes that
	// dwelled in quarantine past evacuateDwell; EvacuationsBlocked are
	// drains refused because they would strand a movie.
	Evacuations        int                      `json:"evacuations,omitempty"`
	EvacuationsBlocked int                      `json:"evacuationsBlocked,omitempty"`
	NodeHealth         []cluster.NodeHealthInfo `json:"nodeHealth,omitempty"`
}

// clusterCatalog materializes the request's movie source.
func (r ClusterPlanRequest) clusterCatalog() ([]workload.Movie, error) {
	if len(r.Movies) > 0 {
		return specsToMovies(r.Movies)
	}
	if r.ZipfMovies <= 0 {
		return nil, fmt.Errorf("give movies or zipfMovies")
	}
	if r.ZipfMovies > maxZipfMovies {
		return nil, fmt.Errorf("zipfMovies %d exceeds the service cap %d", r.ZipfMovies, maxZipfMovies)
	}
	theta := r.ZipfTheta
	if theta == 0 {
		theta = 0.8
	}
	return workload.ZipfCatalog(r.ZipfMovies, theta)
}

// clusterPlan sizes the catalog on eval and packs it per the request.
func (r ClusterPlanRequest) clusterPlan(ctx context.Context, eval *sizing.Evaluator) (cluster.Placement, []workload.Movie, error) {
	if r.Nodes < 1 || r.Nodes > maxClusterNodes {
		return cluster.Placement{}, nil, fmt.Errorf("nodes %d outside [1, %d]", r.Nodes, maxClusterNodes)
	}
	movies, err := r.clusterCatalog()
	if err != nil {
		return cluster.Placement{}, nil, err
	}
	allocs, err := cluster.Demands(ctx, eval, movies, sizing.DefaultRates)
	if err != nil {
		return cluster.Placement{}, nil, err
	}
	opts := cluster.Options{Replicas: r.Replicas, HotMovies: r.HotMovies}
	var nodes []cluster.NodeSpec
	switch {
	case r.NodeStreams > 0 && r.NodeBuffer > 0:
		nodes = cluster.UniformNodes(r.Nodes, r.NodeStreams, r.NodeBuffer)
	case r.NodeStreams > 0 || r.NodeBuffer > 0:
		return cluster.Placement{}, nil, fmt.Errorf("give both nodeStreams and nodeBuffer, or neither")
	default:
		nodes = cluster.AutoNodes(r.Nodes, allocs, opts, r.Headroom)
	}
	p, err := cluster.PackAllocs(allocs, nodes, opts)
	if err != nil {
		return cluster.Placement{}, nil, err
	}
	return p, movies, nil
}

func handleClusterPlan(ctx context.Context, eval *sizing.Evaluator, req ClusterPlanRequest) (ClusterPlanResponse, error) {
	p, _, err := req.clusterPlan(ctx, eval)
	if err != nil {
		return ClusterPlanResponse{}, err
	}
	resp := ClusterPlanResponse{
		TotalStreams:    p.TotalStreams,
		TotalBuffer:     p.TotalBuffer,
		DroppedReplicas: p.DroppedReplicas,
		RefineMoves:     p.RefineMoves,
	}
	for _, l := range p.Loads() {
		resp.Nodes = append(resp.Nodes, ClusterNodeJSON{
			Node: l.Node.ID, MaxStreams: l.Node.MaxStreams, MaxBuffer: l.Node.MaxBuffer,
			Streams: l.Streams, Buffer: l.Buffer, Movies: l.Movies,
		})
	}
	for _, a := range p.Assignments {
		resp.Assignments = append(resp.Assignments, ClusterAssignmentJSON{
			Movie: a.Movie, Node: a.Node, Replica: a.Replica, N: a.N, B: a.B,
		})
	}
	return resp, nil
}

func handleClusterSimulate(ctx context.Context, eval *sizing.Evaluator, req ClusterSimulateRequest) (ClusterSimulateResponse, error) {
	horizon := req.Horizon
	if horizon == 0 {
		horizon = 3000
	}
	if req.Nodes > 0 && horizon*float64(req.Nodes) > maxSimHorizon {
		return ClusterSimulateResponse{}, fmt.Errorf("horizon %g × %d nodes exceeds the service cap %d",
			horizon, req.Nodes, maxSimHorizon)
	}
	warmup := req.Warmup
	if warmup == 0 {
		warmup = horizon / 10
	}
	p, movies, err := req.clusterPlan(ctx, eval)
	if err != nil {
		return ClusterSimulateResponse{}, err
	}
	nodeFaults, err := cluster.ParseNodeFaults(req.Fail)
	if err != nil {
		return ClusterSimulateResponse{}, err
	}
	res, err := cluster.Simulate(ctx, cluster.SimConfig{
		Placement:      p,
		Movies:         movies,
		Rates:          vcr.Rates{PB: 1, FF: 3, RW: 3},
		TotalRate:      req.Lambda,
		Horizon:        horizon,
		Warmup:         warmup,
		Seed:           req.Seed,
		Faults:         nodeFaults,
		Engine:         sim.Engine(req.Engine),
		FluidThreshold: req.FluidThreshold,
	})
	if err != nil {
		return ClusterSimulateResponse{}, err
	}
	resp := ClusterSimulateResponse{
		Hit:          res.Hit,
		Availability: res.Availability,
		ShedRate:     res.ShedRate,
		Rebalances:   res.Rebalances,
		Arrivals:     res.Arrivals,
		Routed:       res.Routed,
		Shed:         res.Shed,
	}
	for _, n := range res.Nodes {
		resp.Nodes = append(resp.Nodes, ClusterSimNodeJSON{
			Node: n.Node, Movies: n.Movies, Streams: n.PlacedStreams, Buffer: n.PlacedBuffer,
			Hit: n.Hit, Availability: n.Availability,
			DiskFailures: n.DiskFailures, Faulted: n.Faulted,
		})
	}
	for _, m := range res.Movies {
		resp.Movies = append(resp.Movies, ClusterSimMovieJSON{
			Movie: m.Movie, Replicas: m.Replicas,
			Arrivals: m.Arrivals, Routed: m.Routed, Shed: m.Shed, Failovers: m.Failovers,
			Availability: m.Availability, Hit: m.Hit,
		})
	}
	return resp, nil
}

func handleClusterChurn(ctx context.Context, eval *sizing.Evaluator, cc *ClusterCounters, req ClusterChurnRequest) (ClusterChurnResponse, error) {
	horizon := req.Horizon
	if horizon == 0 {
		horizon = 3000
	}
	if horizon > maxSimHorizon {
		return ClusterChurnResponse{}, fmt.Errorf("horizon %g exceeds the service cap %d", horizon, maxSimHorizon)
	}
	warmup := req.Warmup
	if warmup == 0 {
		warmup = horizon / 10
	}
	p, movies, err := req.clusterPlan(ctx, eval)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	if req.NodeDisks < 0 || req.NodeDisks > maxNodeDisks {
		return ClusterChurnResponse{}, fmt.Errorf("nodeDisks %d outside [0, %d]", req.NodeDisks, maxNodeDisks)
	}
	if req.NodeDisks > 1 {
		for i := range p.Nodes {
			p.Nodes[i].Disks = req.NodeDisks
		}
	}
	nodeFaults, err := cluster.ParseNodeFaults(req.Fail)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	flashes, err := workload.ParseFlashCrowds(req.Flash)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	grayFaults, err := cluster.ParseGrayFaults(req.Gray)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	policy, err := cluster.ParseRoutePolicy(req.Policy)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	dyn := workload.DynamicWorkload{
		Movies:   movies,
		BaseRate: req.Lambda,
		Flashes:  flashes,
	}
	if req.DiurnalPeriod > 0 {
		amp := req.DiurnalAmp
		if amp == 0 {
			amp = 0.3
		}
		dyn.Diurnal = &workload.Diurnal{Period: req.DiurnalPeriod, Amplitude: amp}
	}
	res, err := cluster.RunChurn(ctx, cluster.ChurnConfig{
		Placement: p,
		Workload:  dyn,
		Horizon:   horizon,
		Warmup:    warmup,
		Seed:      req.Seed,
		Controller: cluster.ControllerConfig{
			Interval:      req.Interval,
			BudgetBytes:   req.BudgetMB * 1e6,
			EvacuateDwell: req.EvacuateDwell,
		},
		ControllerOff: req.Frozen,
		Faults:        nodeFaults,
		Window:        req.Window,
		Gray:          grayFaults,
		Policy:        policy,
		StarveWait:    req.StarveWait,
		Health: cluster.HealthConfig{
			HedgeBudget: req.HedgeBudget,
			DiskHealth:  req.DiskHealth,
		},
	})
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	cc.noteChurnResult(ChurnLastRun{
		Availability:      res.Availability,
		FloorAvailability: res.FloorAvailability,
		MigrationMB:       res.Controller.SpentBytes / 1e6,
		TimeToConverge:    res.TimeToConverge,
		PeakLevel:         res.Controller.PeakLevel.String(),
		Quarantines:       res.Gray.Quarantines,
		Hedges:            res.Gray.Hedges,
		Evacuations:       res.Controller.EvacuationsCompleted,
		HedgeDenied:       res.Gray.HedgeDenied,
		DiskQuarantines:   res.Gray.DiskQuarantines,
	})
	return ClusterChurnResponse{
		Arrivals:           res.Arrivals,
		Admitted:           res.Admitted,
		Availability:       res.Availability,
		FloorAvailability:  res.FloorAvailability,
		Hit:                res.Hit,
		ShedNoReplica:      res.ShedNoReplica,
		ShedSaturated:      res.ShedSaturated,
		ShedDegraded:       res.ShedDegraded,
		Failovers:          res.Failovers,
		ReplicaAdds:        res.Controller.ReplicaAdds,
		ReplicaDrops:       res.Controller.ReplicaDrops,
		MigrationsStarted:  res.Controller.MigrationsStarted,
		MigrationMB:        res.Controller.SpentBytes / 1e6,
		BudgetExhausted:    res.Controller.BudgetExhausted,
		PeakLevel:          res.Controller.PeakLevel.String(),
		TimeToConverge:     res.TimeToConverge,
		Starved:            res.Starved,
		WaitP50:            res.WaitP50,
		WaitP99:            res.WaitP99,
		WaitMax:            res.WaitMax,
		Hedges:             res.Gray.Hedges,
		HedgeWins:          res.Gray.HedgeWins,
		HedgeDenied:        res.Gray.HedgeDenied,
		Probes:             res.Gray.Probes,
		Quarantines:        res.Gray.Quarantines,
		Restores:           res.Gray.Restores,
		DiskQuarantines:    res.Gray.DiskQuarantines,
		DiskRestores:       res.Gray.DiskRestores,
		Evacuations:        res.Controller.EvacuationsCompleted,
		EvacuationsBlocked: res.Controller.EvacuationsBlocked,
		NodeHealth:         res.NodeHealth,
	}, nil
}

package httpapi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vodalloc/internal/cluster"
	"vodalloc/internal/sizing"
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

// notePlan, noteSimulate and noteChurn record one request.
func (c *ClusterCounters) notePlan()     { c.plan.Add(1) }
func (c *ClusterCounters) noteSimulate() { c.simulate.Add(1) }
func (c *ClusterCounters) noteChurn()    { c.churn.Add(1) }

// noteChurnResult publishes a completed churn run's gauges.
func (c *ClusterCounters) noteChurnResult(last ChurnLastRun) {
	c.mu.Lock()
	c.last = &last
	c.mu.Unlock()
}

// Snapshot returns the current counts.
func (c *ClusterCounters) Snapshot() ClusterStatus {
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

// clusterCatalog is every cluster request's movie source: explicit
// movies, or a generated Zipf catalog.
type clusterCatalog struct {
	Movies []workload.MovieSpec `json:"movies,omitempty"`
	// ZipfMovies generates an N-movie Zipf catalog when Movies is
	// empty; ZipfTheta defaults to 0.8.
	ZipfMovies int     `json:"zipfMovies,omitempty"`
	ZipfTheta  float64 `json:"zipfTheta,omitempty"`
}

// ClusterPlanRequest asks for a multi-node placement of the catalog
// (see cluster.PlanSpec for the node shape).
type ClusterPlanRequest struct {
	clusterCatalog
	cluster.PlanSpec
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

// ClusterSimulateRequest plans and then simulates the cluster
// (see cluster.SimSpec); horizon defaults to 3000 and warmup to
// horizon/10, and horizon×nodes is capped.
type ClusterSimulateRequest struct {
	clusterCatalog
	cluster.SimSpec
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
// placement frozen, for a baseline; see cluster.ChurnSpec). Defaults
// are those of ClusterSimulateRequest plus diurnalAmp 0.3, and the
// horizon and nodeDisks are capped. Churn runs no per-node
// simulations, so it takes no engine settings: an "engine" or
// "fluidThreshold" field is refused as unknown.
type ClusterChurnRequest struct {
	clusterCatalog
	cluster.ChurnSpec
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

// movies checks the service's node cap and materializes the catalog.
func (c clusterCatalog) movies(nodes int) ([]workload.Movie, error) {
	if nodes < 1 || nodes > maxClusterNodes {
		return nil, fmt.Errorf("nodes %d outside [1, %d]", nodes, maxClusterNodes)
	}
	if len(c.Movies) > 0 {
		return specsToMovies(c.Movies)
	}
	if c.ZipfMovies <= 0 {
		return nil, fmt.Errorf("give movies or zipfMovies")
	}
	if c.ZipfMovies > maxZipfMovies {
		return nil, fmt.Errorf("zipfMovies %d exceeds the service cap %d", c.ZipfMovies, maxZipfMovies)
	}
	theta := c.ZipfTheta
	if theta == 0 {
		theta = 0.8
	}
	return workload.ZipfCatalog(c.ZipfMovies, theta)
}

func handleClusterPlan(ctx context.Context, eval *sizing.Evaluator, req ClusterPlanRequest) (ClusterPlanResponse, error) {
	movies, err := req.movies(req.Nodes)
	if err != nil {
		return ClusterPlanResponse{}, err
	}
	p, err := cluster.Plan(ctx, eval, movies, req.PlanSpec)
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
	spec := req.SimSpec
	spec.Horizon, spec.Warmup = defaultSpan(spec.Horizon, spec.Warmup)
	if spec.Nodes > 0 && spec.Horizon*float64(spec.Nodes) > maxSimHorizon {
		return ClusterSimulateResponse{}, fmt.Errorf("horizon %g × %d nodes exceeds the service cap %d",
			spec.Horizon, spec.Nodes, maxSimHorizon)
	}
	movies, err := req.movies(spec.Nodes)
	if err != nil {
		return ClusterSimulateResponse{}, err
	}
	cfg, err := spec.Config(ctx, eval, movies)
	if err != nil {
		return ClusterSimulateResponse{}, err
	}
	res, err := cluster.Simulate(ctx, cfg)
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
	spec := req.ChurnSpec
	spec.Horizon, spec.Warmup = defaultSpan(spec.Horizon, spec.Warmup)
	if spec.Horizon > maxSimHorizon {
		return ClusterChurnResponse{}, fmt.Errorf("horizon %g exceeds the service cap %d", spec.Horizon, maxSimHorizon)
	}
	if spec.DiurnalAmp == 0 {
		spec.DiurnalAmp = 0.3
	}
	if spec.NodeDisks < 0 || spec.NodeDisks > maxNodeDisks {
		return ClusterChurnResponse{}, fmt.Errorf("nodeDisks %d outside [0, %d]", spec.NodeDisks, maxNodeDisks)
	}
	movies, err := req.movies(spec.Nodes)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	cfg, err := spec.Config(ctx, eval, movies)
	if err != nil {
		return ClusterChurnResponse{}, err
	}
	res, err := cluster.RunChurn(ctx, cfg)
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

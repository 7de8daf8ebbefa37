package cluster

import (
	"context"
	"errors"

	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// Request specs: one mapping per run kind, from what a front end
// parses to the engine config it runs. vodcluster binds its flags
// straight into a spec's fields and the HTTP service decodes request
// bodies that embed the specs (the JSON tags are the wire names), so a
// knob is declared once here and mapped once to the engine. Each front
// keeps its own defaults, caps and catalog source, applied before it
// calls the spec's Config method.

// PlanSpec is the node shape of a cluster plan: Nodes identical nodes,
// each with a fixed NodeStreams/NodeBuffer budget or, with both zero,
// auto-sized to the catalog with Headroom slack (see AutoNodes); the
// HotMovies most popular movies get Replicas copies (0 hot = all, when
// Replicas > 1).
type PlanSpec struct {
	Nodes       int     `json:"nodes"`
	NodeStreams int     `json:"nodeStreams,omitempty"`
	NodeBuffer  float64 `json:"nodeBuffer,omitempty"`
	Headroom    float64 `json:"headroom,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	HotMovies   int     `json:"hotMovies,omitempty"`
}

// Plan sizes the catalog on eval (sizing.Default when nil; see Demands)
// and packs it onto the spec's nodes (see PackAllocs) — the planner
// vodcluster and the HTTP cluster endpoints share.
func Plan(ctx context.Context, eval *sizing.Evaluator, movies []workload.Movie, s PlanSpec) (Placement, error) {
	fixed := s.NodeStreams > 0 && s.NodeBuffer > 0
	if !fixed && (s.NodeStreams > 0 || s.NodeBuffer > 0) {
		return Placement{}, errors.New("give both nodeStreams and nodeBuffer, or neither")
	}
	allocs, err := Demands(ctx, eval, movies, sizing.DefaultRates)
	if err != nil {
		return Placement{}, err
	}
	o := Options{Replicas: s.Replicas, HotMovies: s.HotMovies}
	var nodes []NodeSpec
	if fixed {
		nodes = UniformNodes(s.Nodes, s.NodeStreams, s.NodeBuffer)
	} else {
		nodes = AutoNodes(s.Nodes, allocs, o, s.Headroom)
	}
	return PackAllocs(allocs, nodes, o)
}

// RunSpec is the plan plus the run parameters both cluster simulations
// take.
type RunSpec struct {
	PlanSpec
	// Lambda is the cluster-wide arrival rate, split by popularity.
	Lambda  float64 `json:"lambda"`
	Horizon float64 `json:"horizon,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Fail schedules node outages: "node0@400,node2@500-1500"
	// (permanent without an end time).
	Fail string `json:"fail,omitempty"`
}

// plan plans movies per the spec and parses its outage schedule.
func (s RunSpec) plan(ctx context.Context, eval *sizing.Evaluator, movies []workload.Movie) (Placement, []NodeFault, error) {
	p, err := Plan(ctx, eval, movies, s.PlanSpec)
	if err != nil {
		return Placement{}, nil, err
	}
	faults, err := ParseNodeFaults(s.Fail)
	return p, faults, err
}

// SimSpec describes a cluster simulation (see Simulate).
type SimSpec struct {
	RunSpec
	// Engine selects every node simulation's backend ("des", "fluid" or
	// "hybrid"; empty = des); FluidThreshold is the hybrid popularity
	// cut and ParticleRate the fluid shadow-viewer rate, which only
	// vodcluster takes. Outage-carrying nodes always run DES.
	Engine         string  `json:"engine,omitempty"`
	FluidThreshold float64 `json:"fluidThreshold,omitempty"`
	ParticleRate   float64 `json:"-"`
}

// Config plans movies per the spec and builds the simulation config,
// at the paper's display rates (1, 3, 3).
func (s SimSpec) Config(ctx context.Context, eval *sizing.Evaluator, movies []workload.Movie) (SimConfig, error) {
	p, faults, err := s.plan(ctx, eval, movies)
	if err != nil {
		return SimConfig{}, err
	}
	return SimConfig{
		Placement:      p,
		Movies:         movies,
		Rates:          vcr.Rates{PB: 1, FF: 3, RW: 3},
		TotalRate:      s.Lambda,
		Horizon:        s.Horizon,
		Warmup:         s.Warmup,
		Seed:           s.Seed,
		Faults:         faults,
		Engine:         sim.Engine(s.Engine),
		FluidThreshold: s.FluidThreshold,
		ParticleRate:   s.ParticleRate,
	}, nil
}

// ChurnSpec describes a churn run (see RunChurn): a time-varying
// workload against the planned cluster with the live rebalancing
// controller, or with the placement frozen for a baseline.
type ChurnSpec struct {
	RunSpec
	// Flash schedules flash crowds: "m01@300:4" or
	// "m01@300:4:10:60:30" (movie@at:peak[:ramp[:hold[:decay]]]).
	Flash string `json:"flash,omitempty"`
	// DiurnalPeriod > 0 adds a sinusoidal rate swing of DiurnalAmp.
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
	// (kind:node[:dN]@start[-end]:factor; kinds slow|jitter|brownout).
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

// Config plans movies per the spec and builds the churn config.
func (s ChurnSpec) Config(ctx context.Context, eval *sizing.Evaluator, movies []workload.Movie) (ChurnConfig, error) {
	p, faults, err := s.plan(ctx, eval, movies)
	if err != nil {
		return ChurnConfig{}, err
	}
	if s.NodeDisks > 1 {
		for i := range p.Nodes {
			p.Nodes[i].Disks = s.NodeDisks
		}
	}
	flashes, err := workload.ParseFlashCrowds(s.Flash)
	if err != nil {
		return ChurnConfig{}, err
	}
	gray, err := ParseGrayFaults(s.Gray)
	if err != nil {
		return ChurnConfig{}, err
	}
	policy, err := ParseRoutePolicy(s.Policy)
	if err != nil {
		return ChurnConfig{}, err
	}
	dyn := workload.DynamicWorkload{Movies: movies, BaseRate: s.Lambda, Flashes: flashes}
	if s.DiurnalPeriod > 0 {
		dyn.Diurnal = &workload.Diurnal{Period: s.DiurnalPeriod, Amplitude: s.DiurnalAmp}
	}
	return ChurnConfig{
		Placement: p,
		Workload:  dyn,
		Horizon:   s.Horizon,
		Warmup:    s.Warmup,
		Seed:      s.Seed,
		Controller: ControllerConfig{
			Interval:      s.Interval,
			BudgetBytes:   s.BudgetMB * 1e6,
			EvacuateDwell: s.EvacuateDwell,
		},
		ControllerOff: s.Frozen,
		Faults:        faults,
		Window:        s.Window,
		Gray:          gray,
		Policy:        policy,
		StarveWait:    s.StarveWait,
		Health:        HealthConfig{HedgeBudget: s.HedgeBudget, DiskHealth: s.DiskHealth},
	}, nil
}

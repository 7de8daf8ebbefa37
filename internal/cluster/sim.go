package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/faults"
	"vodalloc/internal/parallel"
	"vodalloc/internal/sim"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// NodeFault schedules one node-level outage: the node goes down at At
// and comes back at Until. Until <= At means the outage is permanent.
// While a node is down the router fails requests over to replicas (or
// sheds them), and inside the node's own simulation every disk of its
// array fails at At (and is repaired at Until).
type NodeFault struct {
	Node      string
	At, Until float64
}

// Validate checks the fault against a set of known node IDs.
func (f NodeFault) Validate(known map[string]bool) error {
	switch {
	case !known[f.Node]:
		return fmt.Errorf("%w: fault targets unknown node %q", ErrBadCluster, f.Node)
	case math.IsNaN(f.At) || math.IsInf(f.At, 0) || f.At < 0:
		return fmt.Errorf("%w: fault time %v", ErrBadCluster, f.At)
	case math.IsNaN(f.Until) || math.IsInf(f.Until, 0):
		return fmt.Errorf("%w: fault repair time %v", ErrBadCluster, f.Until)
	}
	return nil
}

// ParseNodeFaults parses a node-outage spec: comma-separated
// "node@start" (permanent) or "node@start-end" (repaired at end), e.g.
// "node0@400,node2@500-1500"; times may use exponent notation (1e-3).
// An empty spec is an empty schedule.
func ParseNodeFaults(spec string) ([]NodeFault, error) {
	if spec == "" {
		return nil, nil
	}
	var out []NodeFault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		node, times, ok := strings.Cut(part, "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("%w: bad fault %q: want node@start[-end]", ErrBadCluster, part)
		}
		f := NodeFault{Node: node}
		at, until, ranged := faults.CutTimeRange(times)
		v, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad fault %q: %v", ErrBadCluster, part, err)
		}
		f.At = v
		if ranged {
			v, err := strconv.ParseFloat(until, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad fault %q: %v", ErrBadCluster, part, err)
			}
			f.Until = v
		}
		out = append(out, f)
	}
	return out, nil
}

// SimConfig parameterizes a cluster simulation: a placement to deploy,
// the catalog behind it, the offered load, and the node outages to
// inject.
type SimConfig struct {
	// Placement pins every movie copy to a node (see Plan/PackAllocs).
	Placement Placement
	// Movies is the catalog the placement was planned for; every placed
	// movie must appear here (lengths and VCR profiles drive the
	// per-node simulations).
	Movies []workload.Movie
	// Rates are the display rates shared by all movies.
	Rates vcr.Rates
	// TotalRate is the cluster-wide Poisson arrival rate
	// (viewers/minute), split over movies by popularity.
	TotalRate float64
	// Horizon and Warmup bound the run in simulated minutes;
	// measurements start at Warmup.
	Horizon, Warmup float64
	// Seed makes the run reproducible: the router, the arrival
	// processes and every per-node simulation derive their generators
	// from it.
	Seed int64
	// Workers bounds the per-node simulation fan-out; 0 = GOMAXPROCS.
	Workers int
	// Faults are the node outages to inject.
	Faults []NodeFault
	// Engine selects every node simulation's backend (des when empty);
	// FluidThreshold and ParticleRate parameterize the hybrid and fluid
	// modes (see sim.ServerConfig). Nodes with injected outages always
	// run DES regardless — fault schedules need the discrete backend.
	Engine         sim.Engine
	FluidThreshold float64
	ParticleRate   float64
}

// Validate checks the configuration: the routing pass's churn
// configuration (placement, catalog, rate, horizon, warmup and faults),
// then the per-node simulation settings.
func (c SimConfig) Validate() error {
	if err := c.routing().Validate(); err != nil {
		return err
	}
	switch {
	case c.FluidThreshold < 0 || math.IsNaN(c.FluidThreshold):
		return fmt.Errorf("%w: fluid threshold %v", ErrBadCluster, c.FluidThreshold)
	case c.ParticleRate < 0 || math.IsNaN(c.ParticleRate):
		return fmt.Errorf("%w: particle rate %v", ErrBadCluster, c.ParticleRate)
	}
	if _, err := sim.ParseEngine(string(c.Engine)); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	rates, err := workload.SplitRate(c.TotalRate, c.Movies)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	for i, r := range rates {
		if !(r > 0) {
			return fmt.Errorf("%w: movie %q receives no arrival rate", ErrBadCluster, c.Movies[i].Name)
		}
	}
	return nil
}

// MovieOutcome is one movie's cluster-level measurements.
type MovieOutcome struct {
	Movie    string
	Replicas int
	// Routing-layer flow (post-warmup): Arrivals split into Routed and
	// Shed; Failovers counts routed requests whose primary was down.
	Arrivals, Routed, Shed, Failovers uint64
	// Availability is Routed/Arrivals — the fraction of demand some
	// replica could absorb.
	Availability float64
	// Hit pools the movie's resume hit probability over its hosting
	// nodes' simulations.
	HitSuccesses, HitTrials uint64
	Hit                     float64
}

// NodeOutcome is one node's placed load and simulated measurements.
type NodeOutcome struct {
	Node          string
	Movies        int
	PlacedStreams int
	PlacedBuffer  float64
	// Hit pools the resume outcomes of every movie copy on the node.
	HitSuccesses, HitTrials uint64
	Hit                     float64
	// Availability is the node simulation's fault-free time fraction;
	// DiskFailures counts injected disk failures that took effect.
	Availability float64
	DiskFailures uint64
	Faulted      bool
}

// Result is a cluster simulation's merged measurements.
type Result struct {
	Nodes  []NodeOutcome
	Movies []MovieOutcome
	// Cluster-level flow (post-warmup).
	Arrivals, Routed, Shed uint64
	// Rebalances counts failover reroutes (requests served by a
	// non-primary replica because the primary's node was down).
	Rebalances uint64
	// Hit pools every node's resume outcomes; Availability and
	// ShedRate are Routed/Arrivals and Shed/Arrivals.
	Hit          float64
	Availability float64
	ShedRate     float64
}

// Summary renders a human-readable digest.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: nodes=%d movies=%d\n", len(r.Nodes), len(r.Movies))
	fmt.Fprintf(&b, "  P(hit)=%.4f  availability=%.4f  shed rate=%.4f  rebalances=%d\n",
		r.Hit, r.Availability, r.ShedRate, r.Rebalances)
	fmt.Fprintf(&b, "  arrivals=%d routed=%d shed=%d\n", r.Arrivals, r.Routed, r.Shed)
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "[%s] movies=%d streams=%d buffer=%.1f hit=%.4f avail=%.3f",
			n.Node, n.Movies, n.PlacedStreams, n.PlacedBuffer, n.Hit, n.Availability)
		if n.Faulted {
			fmt.Fprintf(&b, " disk failures=%d FAULTED", n.DiskFailures)
		}
		b.WriteByte('\n')
	}
	for _, m := range r.Movies {
		fmt.Fprintf(&b, "<%s> replicas=%d arrivals=%d routed=%d shed=%d failovers=%d avail=%.3f hit=%.4f\n",
			m.Movie, m.Replicas, m.Arrivals, m.Routed, m.Shed, m.Failovers, m.Availability, m.Hit)
	}
	return b.String()
}

// nodeRow is the journaled per-node digest: everything the merge needs,
// in JSON-stable scalar form (metrics.Proportion itself has unexported
// fields and cannot round-trip).
type nodeRow struct {
	Node         string         `json:"node"`
	Movies       []nodeMovieRow `json:"movies"`
	Availability float64        `json:"availability"`
	DiskFailures uint64         `json:"diskFailures"`
}

type nodeMovieRow struct {
	Movie     string `json:"movie"`
	Successes uint64 `json:"successes"`
	Trials    uint64 `json:"trials"`
}

// Simulate runs the cluster: a deterministic routing pass — a churn run
// with the controller off — spreads the Poisson demand over replicas
// (exercising failover and shedding around the injected node outages),
// and one internal/sim server per node runs concurrently to measure the
// hit probability each node delivers for its placed load. Per-node and
// per-movie measurements are merged into cluster-level hit probability,
// availability, shed rate and rebalance counts.
func Simulate(ctx context.Context, cfg SimConfig) (*Result, error) {
	res, _, err := SimulateResumable(ctx, cfg, "")
	return res, err
}

// SimulateResumable is Simulate journaling each node's row to a sweep
// journal at path (see checkpoint.Map): a rerun after a crash restores
// the journaled nodes and simulates only the missing ones, with
// identical results. The journal is keyed to the whole configuration
// and refuses a mismatched one. An empty path journals nothing.
func SimulateResumable(ctx context.Context, cfg SimConfig, path string) (*Result, checkpoint.Resumed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, checkpoint.Resumed{}, err
	}
	p := cfg.Placement
	movieRates, err := workload.SplitRate(cfg.TotalRate, cfg.Movies)
	if err != nil {
		return nil, checkpoint.Resumed{}, err
	}
	routed, err := routingPass(ctx, cfg)
	if err != nil {
		return nil, checkpoint.Resumed{}, err
	}

	rows, info, err := simulateNodes(ctx, cfg, movieRates, path)
	if err != nil {
		return nil, info, err
	}

	// Merge per-node digests and routing flows.
	res := &Result{Rebalances: routed.failovers}
	loads := p.Loads()
	var hitS, hitT uint64
	movieHits := make(map[string]*MovieOutcome, len(cfg.Movies))
	for i, row := range rows {
		n := NodeOutcome{
			Node:          row.Node,
			Movies:        loads[i].Movies,
			PlacedStreams: loads[i].Streams,
			PlacedBuffer:  loads[i].Buffer,
			Availability:  row.Availability,
			DiskFailures:  row.DiskFailures,
		}
		for _, f := range cfg.Faults {
			if f.Node == row.Node {
				n.Faulted = true
			}
		}
		for _, mr := range row.Movies {
			n.HitSuccesses += mr.Successes
			n.HitTrials += mr.Trials
			mo := movieHits[mr.Movie]
			if mo == nil {
				mo = &MovieOutcome{Movie: mr.Movie}
				movieHits[mr.Movie] = mo
			}
			mo.HitSuccesses += mr.Successes
			mo.HitTrials += mr.Trials
		}
		if n.HitTrials > 0 {
			n.Hit = float64(n.HitSuccesses) / float64(n.HitTrials)
		}
		hitS += n.HitSuccesses
		hitT += n.HitTrials
		res.Nodes = append(res.Nodes, n)
	}
	for i, m := range cfg.Movies {
		mo := movieHits[m.Name]
		if mo == nil {
			mo = &MovieOutcome{Movie: m.Name}
		}
		f := routed.flows[i]
		mo.Replicas = len(p.Replicas(m.Name))
		mo.Arrivals, mo.Routed, mo.Shed, mo.Failovers = f.arrivals, f.routed, f.arrivals-f.routed, f.failovers
		if mo.Arrivals > 0 {
			mo.Availability = float64(mo.Routed) / float64(mo.Arrivals)
		} else {
			mo.Availability = 1
		}
		if mo.HitTrials > 0 {
			mo.Hit = float64(mo.HitSuccesses) / float64(mo.HitTrials)
		}
		res.Arrivals += mo.Arrivals
		res.Routed += mo.Routed
		res.Shed += mo.Shed
		res.Movies = append(res.Movies, *mo)
	}
	if hitT > 0 {
		res.Hit = float64(hitS) / float64(hitT)
	}
	if res.Arrivals > 0 {
		res.Availability = float64(res.Routed) / float64(res.Arrivals)
		res.ShedRate = float64(res.Shed) / float64(res.Arrivals)
	} else {
		res.Availability = 1
	}
	return res, info, nil
}

// routing is the churn configuration of Simulate's routing pass: the
// placement under a static workload at TotalRate, with the outage
// faults and the controller off.
func (c SimConfig) routing() ChurnConfig {
	return ChurnConfig{
		Placement:     c.Placement,
		Workload:      workload.DynamicWorkload{Movies: c.Movies, BaseRate: c.TotalRate},
		Horizon:       c.Horizon,
		Warmup:        c.Warmup,
		Seed:          c.Seed,
		Faults:        c.Faults,
		ControllerOff: true,
	}
}

// routingPass runs Simulate's routing pass on the churn engine, with
// every node's stream budget lifted out of reach: the pass models
// failover and shedding around outages, not capacity, so every measured
// arrival is either routed or shed because all its hosts are down.
// math.MaxInt32 per node cannot overflow Router.Load's sum.
func routingPass(ctx context.Context, cfg SimConfig) (*churnRun, error) {
	rc := cfg.routing()
	rc.Placement.Nodes = append([]NodeSpec(nil), rc.Placement.Nodes...)
	for i := range rc.Placement.Nodes {
		rc.Placement.Nodes[i].MaxStreams = math.MaxInt32
	}
	r, err := newChurnRun(rc)
	if err != nil {
		return nil, err
	}
	return r, r.run(ctx, 0, nil)
}

// simulateNodes runs one internal/sim server per node concurrently,
// journaling rows at path when it is non-empty. A node with no placed
// movies yields an empty, fully-available row.
func simulateNodes(ctx context.Context, cfg SimConfig, movieRates []float64, path string) ([]nodeRow, checkpoint.Resumed, error) {
	p := cfg.Placement
	catalog := make(map[string]workload.Movie, len(cfg.Movies))
	rate := make(map[string]float64, len(cfg.Movies))
	for i, m := range cfg.Movies {
		catalog[m.Name] = m
		rate[m.Name] = movieRates[i]
	}
	// Static replica shares: each copy of a movie absorbs the fraction
	// of the movie's demand proportional to its placed streams. Static
	// (rather than realized-routing) rates keep a single-replica node's
	// simulation identical in distribution to a standalone single-node
	// run — the parity the acceptance test pins.
	totalN := make(map[string]int, len(cfg.Movies))
	for _, a := range p.Assignments {
		totalN[a.Movie] += a.N
	}
	byNode := make(map[string][]Assignment, len(p.Nodes))
	for _, a := range p.Assignments {
		byNode[a.Node] = append(byNode[a.Node], a)
	}
	faultsFor := make(map[string][]NodeFault)
	for _, f := range cfg.Faults {
		faultsFor[f.Node] = append(faultsFor[f.Node], f)
	}

	fn := func(ctx context.Context, i int) (nodeRow, error) {
		node := p.Nodes[i]
		row := nodeRow{Node: node.ID, Availability: 1}
		placed := byNode[node.ID]
		if len(placed) == 0 {
			return row, nil
		}
		sc := sim.ServerConfig{
			Rates:          cfg.Rates,
			Horizon:        cfg.Horizon,
			Warmup:         cfg.Warmup,
			Seed:           cfg.Seed + int64(i+1)*1000003,
			Engine:         cfg.Engine,
			FluidThreshold: cfg.FluidThreshold,
			ParticleRate:   cfg.ParticleRate,
		}
		sort.Slice(placed, func(a, b int) bool { return placed[a].Movie < placed[b].Movie })
		for _, a := range placed {
			m := catalog[a.Movie]
			share := float64(a.N) / float64(totalN[a.Movie])
			sc.Movies = append(sc.Movies, sim.MovieSetup{
				Name: a.Movie, L: m.Length, B: a.B, N: a.N,
				ArrivalRate: rate[a.Movie] * share,
				Profile:     m.Profile,
			})
		}
		// A faulted node simulates against its fixed array (so the
		// fault schedule has disks to kill); healthy nodes stay
		// elastic, preserving exact parity with standalone runs.
		if nf := faultsFor[node.ID]; len(nf) > 0 {
			// Fault schedules need the discrete backend: a capped, failing
			// array violates the fluid model's elastic-resource assumption,
			// so the outage-carrying node falls back to full DES while the
			// healthy nodes keep the configured engine.
			sc.Engine = sim.EngineDES
			sc.TotalStreams = node.MaxStreams
			disks := (node.MaxStreams + sim.StreamsPerDisk - 1) / sim.StreamsPerDisk
			var sched faults.Schedule
			for _, f := range nf {
				for d := 0; d < disks; d++ {
					sched = append(sched, faults.Event{At: f.At, Kind: faults.DiskFail, Disk: d})
				}
				if f.Until > f.At {
					for d := 0; d < disks; d++ {
						sched = append(sched, faults.Event{At: f.Until, Kind: faults.DiskRepair, Disk: d})
					}
				}
			}
			sc.Faults = sched.Sorted()
		}
		srv, err := sim.NewServer(sc)
		if err != nil {
			return row, fmt.Errorf("node %s: %w", node.ID, err)
		}
		sr, err := srv.RunCtx(ctx)
		if err != nil {
			return row, fmt.Errorf("node %s: %w", node.ID, err)
		}
		row.Availability = sr.Faults.Availability
		row.DiskFailures = sr.Faults.DiskFailures
		for _, name := range sr.Order {
			mr := sr.Movies[name]
			row.Movies = append(row.Movies, nodeMovieRow{
				Movie:     name,
				Successes: mr.Hits.Successes(),
				Trials:    mr.Hits.N(),
			})
		}
		return row, nil
	}

	rows, info, err := checkpoint.Map(ctx, parallel.Opts{Workers: cfg.Workers}, path, cfg.identity(), len(p.Nodes), fn)
	return rows, info, parallel.Cause(err)
}

// identity is the node-row journal's identity parts: the whole
// configuration, with Workers zeroed because results are identical at
// any worker count.
func (c SimConfig) identity() []any {
	c.Workers = 0
	return []any{"cluster.simulate", c}
}

// Command vodcluster plans and simulates a multi-node VOD cluster: it
// sizes each movie with the paper's §5 pre-allocation, bin-packs the
// allocations onto nodes (optionally replicating hot movies), and can
// drive one simulated server per node with failover routing and
// node-outage injection.
//
// Usage:
//
//	vodcluster -nodes 3                                    # plan Example 1 onto 3 nodes
//	vodcluster plan -nodes 4 -movies 12 -theta 0.8 -replicas 2 -hot 4
//	vodcluster simulate -nodes 3 -lambda 1.5 -horizon 3000 -fail "node0@500-1500"
//	vodcluster sweep -min-nodes 1 -max-nodes 6 -lambda 1.5 -resume ckpt/
//	vodcluster churn -nodes 4 -lambda 1.5 -flash "m01@300:4" -budget-mb 20000 -resume ckpt/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/cluster"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// phi is the buffer-to-stream price ratio of the paper's Example 2
// hardware ($750/$70 ≈ 11); relative cost = φ·ΣB + Σn.
const phi = 11.0

var paperRates = vcr.Rates{PB: 1, FF: 3, RW: 3}

func main() {
	args := os.Args[1:]
	cmd := "plan"
	if len(args) > 0 {
		switch args[0] {
		case "plan", "simulate", "sweep", "churn":
			cmd, args = args[0], args[1:]
		case "help", "-h", "-help", "--help":
			usage()
			return
		}
	}
	var err error
	switch cmd {
	case "plan":
		err = runPlan(args)
	case "simulate":
		err = runSimulate(args)
	case "sweep":
		err = runSweep(args)
	case "churn":
		err = runChurn(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodcluster:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `vodcluster <plan|simulate|sweep|churn> [flags]

  plan      size the catalog and bin-pack it onto nodes (the default)
  simulate  plan, then run one simulated server per node with failover routing
  sweep     plan+simulate across a range of node counts
  churn     drive a time-varying workload with the live rebalancing controller

Run "vodcluster <subcommand> -h" for flags.`)
}

// catalogFlags is the movie-source selection shared by every
// subcommand.
type catalogFlags struct {
	movies  *int
	theta   *float64
	catalog *string
}

func addCatalogFlags(fs *flag.FlagSet) catalogFlags {
	return catalogFlags{
		movies:  fs.Int("movies", 0, "generate an N-movie Zipf catalog (0 = the paper's Example 1 catalog)"),
		theta:   fs.Float64("theta", 0.8, "Zipf skew for -movies"),
		catalog: fs.String("catalog", "", "JSON catalog file (overrides -movies)"),
	}
}

func (c catalogFlags) load() ([]workload.Movie, error) {
	switch {
	case *c.catalog != "":
		return workload.LoadCatalog(*c.catalog)
	case *c.movies > 0:
		return workload.ZipfCatalog(*c.movies, *c.theta)
	default:
		return workload.Example1Movies(), nil
	}
}

// clusterFlags is the node/placement shape shared by every subcommand.
type clusterFlags struct {
	nodes       *int
	nodeStreams *int
	nodeBuffer  *float64
	headroom    *float64
	replicas    *int
	hot         *int
	par         *int
}

func addClusterFlags(fs *flag.FlagSet) clusterFlags {
	return clusterFlags{
		nodes:       fs.Int("nodes", 3, "node count"),
		nodeStreams: fs.Int("node-streams", 0, "per-node stream budget n_s (0 = auto-size)"),
		nodeBuffer:  fs.Float64("node-buffer", 0, "per-node buffer budget B_s, movie-minutes (0 = auto-size)"),
		headroom:    fs.Float64("headroom", 1.3, "auto-sizing slack factor"),
		replicas:    fs.Int("replicas", 1, "copies per hot movie (1 = no replication)"),
		hot:         fs.Int("hot", 0, "how many top-popularity movies replicate (0 = all, when -replicas > 1)"),
		par:         fs.Int("parallel", 0, "worker bound for sizing and per-node simulations (0 = GOMAXPROCS)"),
	}
}

func (c clusterFlags) opts() cluster.Options {
	return cluster.Options{Replicas: *c.replicas, HotMovies: *c.hot}
}

// plan sizes the catalog and packs it onto count nodes per the flags.
func (c clusterFlags) plan(ctx context.Context, movies []workload.Movie, count int) (cluster.Placement, []cluster.MovieAlloc, error) {
	sizing.Default.Workers = *c.par
	allocs, err := cluster.Demands(ctx, nil, movies, sizing.DefaultRates)
	if err != nil {
		return cluster.Placement{}, nil, err
	}
	var nodes []cluster.NodeSpec
	if *c.nodeStreams > 0 && *c.nodeBuffer > 0 {
		nodes = cluster.UniformNodes(count, *c.nodeStreams, *c.nodeBuffer)
	} else if *c.nodeStreams > 0 || *c.nodeBuffer > 0 {
		return cluster.Placement{}, nil, fmt.Errorf("give both -node-streams and -node-buffer, or neither")
	} else {
		nodes = cluster.AutoNodes(count, allocs, c.opts(), *c.headroom)
	}
	p, err := cluster.PackAllocs(allocs, nodes, c.opts())
	if err != nil {
		return cluster.Placement{}, nil, err
	}
	return p, allocs, nil
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	cat := addCatalogFlags(fs)
	cf := addClusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	p, _, err := cf.plan(context.Background(), movies, *cf.nodes)
	if err != nil {
		return err
	}
	printPlan(p, movies)
	return nil
}

func printPlan(p cluster.Placement, movies []workload.Movie) {
	fmt.Printf("plan: %d movies on %d nodes\n", len(movies), len(p.Nodes))
	fmt.Printf("  total streams=%d buffer=%.1f relative cost=%.0f", p.TotalStreams, p.TotalBuffer, phi*p.TotalBuffer+float64(p.TotalStreams))
	if p.DroppedReplicas > 0 {
		fmt.Printf("  dropped replicas=%d", p.DroppedReplicas)
	}
	if p.RefineMoves > 0 {
		fmt.Printf("  refine moves=%d", p.RefineMoves)
	}
	fmt.Println()
	byNode := map[string][]cluster.Assignment{}
	for _, a := range p.Assignments {
		byNode[a.Node] = append(byNode[a.Node], a)
	}
	for _, n := range p.Nodes {
		as := byNode[n.ID]
		sort.Slice(as, func(i, j int) bool { return as[i].Movie < as[j].Movie })
		var streams int
		var buffer float64
		parts := make([]string, 0, len(as))
		for _, a := range as {
			streams += a.N
			buffer += a.B
			tag := ""
			if a.Replica > 0 {
				tag = fmt.Sprintf(" r%d", a.Replica)
			}
			parts = append(parts, fmt.Sprintf("%s%s (B=%.1f n=%d)", a.Movie, tag, a.B, a.N))
		}
		fmt.Printf("[%s] streams=%d/%d buffer=%.1f/%.1f  %s\n",
			n.ID, streams, n.MaxStreams, buffer, n.MaxBuffer, strings.Join(parts, ", "))
	}
}

// simFlags are the load/horizon knobs shared by simulate, sweep and
// churn, plus the per-node simulation backend knobs that only simulate
// and sweep register (see addNodeSimFlags).
type simFlags struct {
	lambda         *float64
	horizon        *float64
	warmup         *float64
	seed           *int64
	resume         *string
	engine         *string
	fluidThreshold *float64
	particleRate   *float64
}

func addSimFlags(fs *flag.FlagSet) simFlags {
	return simFlags{
		lambda:  fs.Float64("lambda", 1.5, "cluster-wide Poisson arrival rate, viewers/minute"),
		horizon: fs.Float64("horizon", 3000, "simulated minutes"),
		warmup:  fs.Float64("warmup", -1, "measurement warmup, minutes (-1 = horizon/10)"),
		seed:    fs.Int64("seed", 1, "random seed"),
		resume:  fs.String("resume", "", "checkpoint directory: journal per-node rows there and resume a killed run"),
	}
}

// addNodeSimFlags is addSimFlags plus the per-node simulation backend
// flags, for the subcommands that run per-node simulations.
func addNodeSimFlags(fs *flag.FlagSet) simFlags {
	s := addSimFlags(fs)
	s.engine = fs.String("engine", "des", "per-node simulation backend: des|fluid|hybrid")
	s.fluidThreshold = fs.Float64("fluid-threshold", 0,
		"hybrid mode: per-movie arrival rate at or above which a copy runs fluid")
	s.particleRate = fs.Float64("particle-rate", 0, "fluid shadow-viewer rate per minute (0 = default)")
	return s
}

func (s simFlags) warmupVal() float64 {
	if *s.warmup >= 0 {
		return *s.warmup
	}
	return *s.horizon / 10
}

func (s simFlags) config(p cluster.Placement, movies []workload.Movie, workers int, faults []cluster.NodeFault) cluster.SimConfig {
	return cluster.SimConfig{
		Placement:      p,
		Movies:         movies,
		Rates:          paperRates,
		TotalRate:      *s.lambda,
		Horizon:        *s.horizon,
		Warmup:         s.warmupVal(),
		Seed:           *s.seed,
		Workers:        workers,
		Faults:         faults,
		Engine:         sim.Engine(*s.engine),
		FluidThreshold: *s.fluidThreshold,
		ParticleRate:   *s.particleRate,
	}
}

// runClusterSim dispatches one cluster simulation, journaling per-node
// rows under dir when non-empty and reporting what a rerun restored.
func runClusterSim(ctx context.Context, cfg cluster.SimConfig, dir, walName string) (*cluster.Result, error) {
	if dir == "" {
		return cluster.Simulate(ctx, cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res, info, err := cluster.SimulateResumable(ctx, cfg, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	if info.Items > 0 || info.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "vodcluster: resumed %d of %d node rows from %s (torn tail: %d bytes)\n",
			info.Items, len(cfg.Placement.Nodes), dir, info.TornBytes)
	}
	return res, nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	cat := addCatalogFlags(fs)
	cf := addClusterFlags(fs)
	sf := addNodeSimFlags(fs)
	failSpec := fs.String("fail", "", `node outages: "node0@400,node2@500-1500" (permanent without -end)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	ctx := context.Background()
	p, _, err := cf.plan(ctx, movies, *cf.nodes)
	if err != nil {
		return err
	}
	faults, err := cluster.ParseNodeFaults(*failSpec)
	if err != nil {
		return err
	}
	res, err := runClusterSim(ctx, sf.config(p, movies, *cf.par, faults), *sf.resume, "cluster-sim.wal")
	if err != nil {
		return err
	}
	printPlan(p, movies)
	fmt.Printf("simulated %g min at lambda=%g\n", *sf.horizon, *sf.lambda)
	fmt.Print(res.Summary())
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	cat := addCatalogFlags(fs)
	cf := addClusterFlags(fs)
	sf := addNodeSimFlags(fs)
	minNodes := fs.Int("min-nodes", 1, "smallest node count")
	maxNodes := fs.Int("max-nodes", 6, "largest node count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *minNodes < 1 || *maxNodes < *minNodes {
		return fmt.Errorf("bad node range %d..%d", *minNodes, *maxNodes)
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	ctx := context.Background()

	type row struct {
		nodes int
		p     cluster.Placement
		res   *cluster.Result
	}
	rows := make(map[int]row)
	// Descending node counts: the largest cluster has the most (and
	// cheapest, often empty) per-node rows, so a killed run has
	// journaled progress to restore almost immediately.
	for n := *maxNodes; n >= *minNodes; n-- {
		p, _, err := cf.plan(ctx, movies, n)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		res, err := runClusterSim(ctx, sf.config(p, movies, *cf.par, nil), *sf.resume,
			fmt.Sprintf("cluster-n%d.wal", n))
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		rows[n] = row{nodes: n, p: p, res: res}
	}

	fmt.Printf("cluster sweep: %d movies, lambda=%g, horizon=%g\n", len(movies), *sf.lambda, *sf.horizon)
	fmt.Printf("%5s %8s %9s %9s %8s %8s %8s %10s\n",
		"nodes", "streams", "buffer", "relcost", "P(hit)", "avail", "shed", "rebalances")
	for n := *minNodes; n <= *maxNodes; n++ {
		r := rows[n]
		fmt.Printf("%5d %8d %9.1f %9.0f %8.4f %8.4f %8.4f %10d\n",
			r.nodes, r.p.TotalStreams, r.p.TotalBuffer,
			phi*r.p.TotalBuffer+float64(r.p.TotalStreams),
			r.res.Hit, r.res.Availability, r.res.ShedRate, r.res.Rebalances)
	}
	return nil
}

// runChurn drives the live control plane: a time-varying workload
// (diurnal swing, Zipf drift, flash crowds) against the planned
// placement, with the budgeted rebalancing controller reacting online
// (or frozen, with -controller=false, for the baseline). With -resume
// the run journals replay checkpoints and survives a SIGKILL — even one
// landing mid-rebalance — byte-identically.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	cat := addCatalogFlags(fs)
	cf := addClusterFlags(fs)
	sf := addSimFlags(fs)
	failSpec := fs.String("fail", "", `node outages: "node0@400,node2@500-1500"`)
	graySpec := fs.String("gray", "", `gray faults: "slow:node0@300-700:12,brownout:node2@400-800:0.4" (kind:node@start[-end]:factor)`)
	policy := fs.String("policy", "", "routing policy under gray faults: blind|health|hedge (default blind)")
	starveWait := fs.Float64("starve-wait", 0, "admitted waits above this count as starved, minutes (0 = default 8)")
	evacuateDwell := fs.Float64("evacuate-dwell", 0, "drain replicas off nodes quarantined longer than this, minutes (0 = off; needs the controller)")
	hedgeBudget := fs.Float64("hedge-budget", 0, "token-bucket burst cap on hedged dispatch (0 = unlimited)")
	diskHealth := fs.Bool("disk-health", false, "track health and quarantine at disk granularity")
	nodeDisks := fs.Int("node-disks", 0, `disks per node, addressable in -gray as "slow:node0:d1@..." (0 = 1)`)
	flashSpec := fs.String("flash", "", `flash crowds: "m01@300:4" or "m01@300:4:10:60:30" (movie@at:peak[:ramp[:hold[:decay]]])`)
	diurnalPeriod := fs.Float64("diurnal-period", 0, "diurnal cycle length, minutes (0 = no diurnal swing)")
	diurnalAmp := fs.Float64("diurnal-amp", 0.3, "diurnal amplitude in [0,1), with -diurnal-period")
	driftTheta1 := fs.Float64("drift-theta1", -1, "Zipf exponent drifts from -theta to this over -drift-period (<0 = no drift)")
	driftPeriod := fs.Float64("drift-period", 0, "drift span, minutes (0 = horizon)")
	rotate := fs.Float64("rotate", 0, "minutes per one-position popularity rank rotation (0 = none)")
	epoch := fs.Float64("epoch", 0, "piecewise-constant rate step, minutes (0 = default)")
	budgetMB := fs.Float64("budget-mb", 0, "total migration budget, MB (0 = unlimited)")
	migrations := fs.Int("migrations", 0, "max concurrent migrations (0 = default 2)")
	interval := fs.Float64("interval", 0, "controller tick interval, minutes (0 = default 15)")
	controller := fs.Bool("controller", true, "enable the rebalancing controller (false = frozen placement baseline)")
	window := fs.Float64("window", 0, "availability-floor window, minutes (0 = 60)")
	ckptEvery := fs.Int("checkpoint-every", 2000, "events between checkpoints, with -resume")
	if err := fs.Parse(args); err != nil {
		return err
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	ctx := context.Background()
	p, _, err := cf.plan(ctx, movies, *cf.nodes)
	if err != nil {
		return err
	}
	if *nodeDisks > 1 {
		for i := range p.Nodes {
			p.Nodes[i].Disks = *nodeDisks
		}
	}
	faults, err := cluster.ParseNodeFaults(*failSpec)
	if err != nil {
		return err
	}
	gray, err := cluster.ParseGrayFaults(*graySpec)
	if err != nil {
		return err
	}
	pol, err := cluster.ParseRoutePolicy(*policy)
	if err != nil {
		return err
	}
	flashes, err := workload.ParseFlashCrowds(*flashSpec)
	if err != nil {
		return err
	}
	dyn := workload.DynamicWorkload{
		Movies:   movies,
		BaseRate: *sf.lambda,
		Epoch:    *epoch,
		Flashes:  flashes,
	}
	if *diurnalPeriod > 0 {
		dyn.Diurnal = &workload.Diurnal{Period: *diurnalPeriod, Amplitude: *diurnalAmp}
	}
	if *driftTheta1 >= 0 {
		period := *driftPeriod
		if period <= 0 {
			period = *sf.horizon
		}
		dyn.Drift = &workload.ZipfDrift{Theta0: *cat.theta, Theta1: *driftTheta1, Period: period, Rotate: *rotate}
	} else if *rotate > 0 {
		dyn.Drift = &workload.ZipfDrift{Theta0: *cat.theta, Theta1: *cat.theta, Period: *sf.horizon, Rotate: *rotate}
	}
	cfg := cluster.ChurnConfig{
		Placement: p,
		Workload:  dyn,
		Horizon:   *sf.horizon,
		Warmup:    sf.warmupVal(),
		Seed:      *sf.seed,
		Controller: cluster.ControllerConfig{
			Interval:      *interval,
			BudgetBytes:   *budgetMB * 1e6,
			MaxConcurrent: *migrations,
			EvacuateDwell: *evacuateDwell,
		},
		ControllerOff: !*controller,
		Faults:        faults,
		Window:        *window,
		Gray:          gray,
		Policy:        pol,
		StarveWait:    *starveWait,
		Health: cluster.HealthConfig{
			HedgeBudget: *hedgeBudget,
			DiskHealth:  *diskHealth,
		},
	}
	var res *cluster.ChurnResult
	if *sf.resume != "" {
		res, err = runChurnResumable(ctx, cfg, *sf.resume, *ckptEvery)
	} else {
		res, err = cluster.RunChurn(ctx, cfg)
	}
	if err != nil {
		return err
	}
	mode := "controller on"
	if cfg.ControllerOff {
		mode = "frozen placement"
	}
	fmt.Printf("churn: %d movies on %d nodes, lambda=%g, horizon=%g (%s)\n",
		len(movies), *cf.nodes, *sf.lambda, *sf.horizon, mode)
	fmt.Print(res.Summary())
	return nil
}

// runChurnResumable runs churn with replay checkpoints in dir,
// resuming from an existing checkpoint first (see sim.RunSnapshotted).
func runChurnResumable(ctx context.Context, cfg cluster.ChurnConfig, dir string, every int) (*cluster.ChurnResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return sim.RunSnapshotted(filepath.Join(dir, "churn.ckpt"), checkpoint.KindChurnRun, cfg.Identity(),
		func(sink func(sim.Checkpoint) error) (*cluster.ChurnResult, error) {
			return cluster.RunChurnCheckpointed(ctx, cfg, every, sink)
		},
		func(cp sim.Checkpoint, sink func(sim.Checkpoint) error) (*cluster.ChurnResult, error) {
			fmt.Fprintf(os.Stderr, "vodcluster: resuming churn from checkpoint at t=%.2f (%d events) in %s\n", cp.Now, cp.Fired, dir)
			return cluster.ResumeChurnCheckpointed(ctx, cfg, cp, every, sink)
		})
}

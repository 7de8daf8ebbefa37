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
	"vodalloc/internal/workload"
)

// phi is the buffer-to-stream price ratio of the paper's Example 2
// hardware ($750/$70 ≈ 11); relative cost = φ·ΣB + Σn.
const phi = 11.0

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

// addPlanFlags binds the node/placement shape flags shared by every
// subcommand into s, and registers -parallel, the worker bound for
// sizing and per-node simulations.
func addPlanFlags(fs *flag.FlagSet, s *cluster.PlanSpec) *int {
	fs.IntVar(&s.Nodes, "nodes", 3, "node count")
	fs.IntVar(&s.NodeStreams, "node-streams", 0, "per-node stream budget n_s (0 = auto-size)")
	fs.Float64Var(&s.NodeBuffer, "node-buffer", 0, "per-node buffer budget B_s, movie-minutes (0 = auto-size)")
	fs.Float64Var(&s.Headroom, "headroom", 1.3, "auto-sizing slack factor")
	fs.IntVar(&s.Replicas, "replicas", 1, "copies per hot movie (1 = no replication)")
	fs.IntVar(&s.HotMovies, "hot", 0, "how many top-popularity movies replicate (0 = all, when -replicas > 1)")
	return fs.Int("parallel", 0, "worker bound for sizing and per-node simulations (0 = GOMAXPROCS)")
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var spec cluster.PlanSpec
	cat := addCatalogFlags(fs)
	par := addPlanFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	sizing.Default.Workers = *par
	p, err := cluster.Plan(context.Background(), nil, movies, spec)
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

// addRunFlags binds the load/horizon flags shared by simulate, sweep
// and churn into s, and registers -resume, the checkpoint directory.
func addRunFlags(fs *flag.FlagSet, s *cluster.RunSpec) *string {
	fs.Float64Var(&s.Lambda, "lambda", 1.5, "cluster-wide Poisson arrival rate, viewers/minute")
	fs.Float64Var(&s.Horizon, "horizon", 3000, "simulated minutes")
	fs.Float64Var(&s.Warmup, "warmup", -1, "measurement warmup, minutes (-1 = horizon/10)")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed")
	return fs.String("resume", "", "checkpoint directory: journal per-node rows there and resume a killed run")
}

// addSimFlags is addRunFlags plus the per-node simulation backend
// flags, for the subcommands that run per-node simulations.
func addSimFlags(fs *flag.FlagSet, s *cluster.SimSpec) *string {
	resume := addRunFlags(fs, &s.RunSpec)
	fs.StringVar(&s.Engine, "engine", "des", "per-node simulation backend: des|fluid|hybrid")
	fs.Float64Var(&s.FluidThreshold, "fluid-threshold", 0,
		"hybrid mode: per-movie arrival rate at or above which a copy runs fluid")
	fs.Float64Var(&s.ParticleRate, "particle-rate", 0, "fluid shadow-viewer rate per minute (0 = default)")
	return resume
}

// applyDefaults applies -parallel to sizing and -warmup's default
// (below zero is horizon/10) before a run's config is built.
func applyDefaults(s *cluster.RunSpec, workers int) {
	sizing.Default.Workers = workers
	if !(s.Warmup >= 0) {
		s.Warmup = s.Horizon / 10
	}
}

// simConfig builds one cluster simulation's config from the flags.
func simConfig(spec cluster.SimSpec, movies []workload.Movie, workers int) (cluster.SimConfig, error) {
	applyDefaults(&spec.RunSpec, workers)
	cfg, err := spec.Config(context.Background(), nil, movies)
	cfg.Workers = workers
	return cfg, err
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
	var spec cluster.SimSpec
	cat := addCatalogFlags(fs)
	par := addPlanFlags(fs, &spec.PlanSpec)
	resume := addSimFlags(fs, &spec)
	fs.StringVar(&spec.Fail, "fail", "", `node outages: "node0@400,node2@500-1500" (permanent without -end)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	movies, err := cat.load()
	if err != nil {
		return err
	}
	cfg, err := simConfig(spec, movies, *par)
	if err != nil {
		return err
	}
	res, err := runClusterSim(context.Background(), cfg, *resume, "cluster-sim.wal")
	if err != nil {
		return err
	}
	printPlan(cfg.Placement, movies)
	fmt.Printf("simulated %g min at lambda=%g\n", spec.Horizon, spec.Lambda)
	fmt.Print(res.Summary())
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var spec cluster.SimSpec
	cat := addCatalogFlags(fs)
	par := addPlanFlags(fs, &spec.PlanSpec)
	resume := addSimFlags(fs, &spec)
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
		p   cluster.Placement
		res *cluster.Result
	}
	rows := make(map[int]row)
	// Descending node counts: the largest cluster has the most (and
	// cheapest, often empty) per-node rows, so a killed run has
	// journaled progress to restore almost immediately.
	for n := *maxNodes; n >= *minNodes; n-- {
		spec.Nodes = n
		cfg, err := simConfig(spec, movies, *par)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		res, err := runClusterSim(ctx, cfg, *resume, fmt.Sprintf("cluster-n%d.wal", n))
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", n, err)
		}
		rows[n] = row{p: cfg.Placement, res: res}
	}

	fmt.Printf("cluster sweep: %d movies, lambda=%g, horizon=%g\n", len(movies), spec.Lambda, spec.Horizon)
	fmt.Printf("%5s %8s %9s %9s %8s %8s %8s %10s\n",
		"nodes", "streams", "buffer", "relcost", "P(hit)", "avail", "shed", "rebalances")
	for n := *minNodes; n <= *maxNodes; n++ {
		r := rows[n]
		fmt.Printf("%5d %8d %9.1f %9.0f %8.4f %8.4f %8.4f %10d\n",
			n, r.p.TotalStreams, r.p.TotalBuffer,
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
	var spec cluster.ChurnSpec
	cat := addCatalogFlags(fs)
	par := addPlanFlags(fs, &spec.PlanSpec)
	resume := addRunFlags(fs, &spec.RunSpec)
	fs.StringVar(&spec.Fail, "fail", "", `node outages: "node0@400,node2@500-1500"`)
	fs.StringVar(&spec.Gray, "gray", "", `gray faults: "slow:node0@300-700:12,brownout:node2@400-800:0.4" (kind:node@start[-end]:factor)`)
	fs.StringVar(&spec.Policy, "policy", "", "routing policy under gray faults: blind|health|hedge (default blind)")
	fs.Float64Var(&spec.StarveWait, "starve-wait", 0, "admitted waits above this count as starved, minutes (0 = default 8)")
	fs.Float64Var(&spec.EvacuateDwell, "evacuate-dwell", 0, "drain replicas off nodes quarantined longer than this, minutes (0 = off; needs the controller)")
	fs.Float64Var(&spec.HedgeBudget, "hedge-budget", 0, "token-bucket burst cap on hedged dispatch (0 = unlimited)")
	fs.BoolVar(&spec.DiskHealth, "disk-health", false, "track health and quarantine at disk granularity")
	fs.IntVar(&spec.NodeDisks, "node-disks", 0, `disks per node, addressable in -gray as "slow:node0:d1@..." (0 = 1)`)
	fs.StringVar(&spec.Flash, "flash", "", `flash crowds: "m01@300:4" or "m01@300:4:10:60:30" (movie@at:peak[:ramp[:hold[:decay]]])`)
	fs.Float64Var(&spec.DiurnalPeriod, "diurnal-period", 0, "diurnal cycle length, minutes (0 = no diurnal swing)")
	fs.Float64Var(&spec.DiurnalAmp, "diurnal-amp", 0.3, "diurnal amplitude in [0,1), with -diurnal-period")
	driftTheta1 := fs.Float64("drift-theta1", -1, "Zipf exponent drifts from -theta to this over -drift-period (<0 = no drift)")
	driftPeriod := fs.Float64("drift-period", 0, "drift span, minutes (0 = horizon)")
	rotate := fs.Float64("rotate", 0, "minutes per one-position popularity rank rotation (0 = none)")
	epoch := fs.Float64("epoch", 0, "piecewise-constant rate step, minutes (0 = default)")
	fs.Float64Var(&spec.BudgetMB, "budget-mb", 0, "total migration budget, MB (0 = unlimited)")
	migrations := fs.Int("migrations", 0, "max concurrent migrations (0 = default 2)")
	fs.Float64Var(&spec.Interval, "interval", 0, "controller tick interval, minutes (0 = default 15)")
	controller := fs.Bool("controller", true, "enable the rebalancing controller (false = frozen placement baseline)")
	fs.Float64Var(&spec.Window, "window", 0, "availability-floor window, minutes (0 = 60)")
	ckptEvery := fs.Int("checkpoint-every", 2000, "events between checkpoints, with -resume")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec.Frozen = !*controller
	movies, err := cat.load()
	if err != nil {
		return err
	}
	ctx := context.Background()
	applyDefaults(&spec.RunSpec, *par)
	cfg, err := spec.Config(ctx, nil, movies)
	if err != nil {
		return err
	}
	cfg.Workload.Epoch = *epoch
	cfg.Controller.MaxConcurrent = *migrations
	if *driftTheta1 >= 0 {
		period := *driftPeriod
		if period <= 0 {
			period = spec.Horizon
		}
		cfg.Workload.Drift = &workload.ZipfDrift{Theta0: *cat.theta, Theta1: *driftTheta1, Period: period, Rotate: *rotate}
	} else if *rotate > 0 {
		cfg.Workload.Drift = &workload.ZipfDrift{Theta0: *cat.theta, Theta1: *cat.theta, Period: spec.Horizon, Rotate: *rotate}
	}
	var res *cluster.ChurnResult
	if *resume != "" {
		res, err = runChurnResumable(ctx, cfg, *resume, *ckptEvery)
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
		len(movies), spec.Nodes, spec.Lambda, spec.Horizon, mode)
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

// Command vodsim runs the discrete-event VOD server simulator once and
// prints the measured hit probability, waiting times and resource
// occupancy, optionally next to the analytic model's prediction.
//
// Usage:
//
//	vodsim -l 120 -b 60 -n 30 -lambda 0.5 -horizon 6000
//	vodsim -l 120 -w 1 -n 60 -dur gamma:2:4 -piggyback -compare
//	vodsim -l 120 -b 60 -n 30 -streams 60 -faults "fail@1000:d0,repair@2000:d0"
//	vodsim -l 120 -b 60 -n 30 -streams 60 -faults "rand:7:2000:200:6"
//	vodsim -l 120 -b 30 -n 30 -lambda 50000 -engine fluid -compare=false
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vodalloc/internal/analytic"
	"vodalloc/internal/checkpoint"
	"vodalloc/internal/dist"
	"vodalloc/internal/faults"
	"vodalloc/internal/sim"
	"vodalloc/internal/trace"
	"vodalloc/internal/vcr"
)

func main() {
	l := flag.Float64("l", 120, "movie length, minutes")
	b := flag.Float64("b", -1, "total playback buffer, movie-minutes")
	w := flag.Float64("w", -1, "maximum waiting time (alternative to -b)")
	n := flag.Int("n", 30, "number of I/O streams / partitions")
	lambda := flag.Float64("lambda", 0.5, "Poisson arrival rate, viewers/minute")
	durSpec := flag.String("dur", "gamma:2:4", "VCR duration distribution spec")
	thinkSpec := flag.String("think", "exp:15", "think-time distribution spec")
	pFF := flag.Float64("pff", 0.2, "mix probability of FF")
	pRW := flag.Float64("prw", 0.2, "mix probability of RW")
	pPAU := flag.Float64("ppau", 0.6, "mix probability of PAU")
	rFF := flag.Float64("rff", 3, "fast-forward rate (multiples of playback)")
	rRW := flag.Float64("rrw", 3, "rewind rate (multiples of playback)")
	horizon := flag.Float64("horizon", 6000, "simulated minutes")
	warmup := flag.Float64("warmup", 500, "measurement warmup, minutes")
	seed := flag.Int64("seed", 1, "random seed")
	piggyback := flag.Bool("piggyback", false, "enable piggyback merging after misses")
	slew := flag.Float64("slew", 0.05, "piggyback display-rate slew fraction")
	maxDed := flag.Int("maxdedicated", 0, "cap on dedicated streams (0 = unlimited)")
	streams := flag.Int("streams", 0, "total provisioned I/O streams across batch and VCR (0 = uncapped)")
	faultSpec := flag.String("faults", "", `fault schedule: "fail@T:dD,repair@T:dD,glitch@T:N,bufloss@T" or "rand:seed:mtbf:mttr:disks"`)
	compare := flag.Bool("compare", true, "print the analytic model prediction alongside")
	tracePath := flag.String("trace", "", "write a structured event trace to this file (\"-\" for stdout)")
	reps := flag.Int("replications", 1, "independent replications (seeds seed..seed+R-1, run concurrently)")
	engine := flag.String("engine", "des", "simulation backend: des|fluid|hybrid")
	fluidThreshold := flag.Float64("fluid-threshold", 0, "hybrid mode: arrival rate at or above which a movie runs fluid")
	particleRate := flag.Float64("particle-rate", 0, "fluid shadow-viewer rate per minute (0 = default)")
	resumeDir := flag.String("resume", "", "checkpoint directory: journal progress there and resume a killed run")
	ckptEvery := flag.Int("checkpoint-every", 250000, "events between single-run checkpoints with -resume")
	flag.Parse()

	var buf float64
	switch {
	case *b >= 0 && *w >= 0:
		fatal(fmt.Errorf("give only one of -b and -w"))
	case *w >= 0:
		buf = *l - float64(*n)**w
		if buf < 0 {
			fatal(fmt.Errorf("infeasible -w/-n pair: B = l − n·w = %.2f", buf))
		}
	case *b >= 0:
		buf = *b
	default:
		fatal(fmt.Errorf("give one of -b or -w"))
	}

	dur, err := dist.Parse(*durSpec)
	if err != nil {
		fatal(err)
	}
	think, err := dist.Parse(*thinkSpec)
	if err != nil {
		fatal(err)
	}

	var tracer trace.Tracer
	if *tracePath != "" {
		sink := os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			sink = f
		}
		tw := &trace.Writer{W: sink}
		defer func() {
			if tw.Err != nil {
				fmt.Fprintln(os.Stderr, "vodsim: trace write:", tw.Err)
			}
		}()
		tracer = tw
	}

	sched, err := faults.ParseSchedule(*faultSpec, *horizon)
	if err != nil {
		fatal(err)
	}

	cfg := sim.Config{
		L: *l, B: buf, N: *n,
		Tracer:      tracer,
		Rates:       vcr.Rates{PB: 1, FF: *rFF, RW: *rRW},
		ArrivalRate: *lambda,
		Profile: vcr.Profile{
			PFF: *pFF, PRW: *pRW, PPAU: *pPAU,
			DurFF: dur, DurRW: dur, DurPAU: dur,
			Think: think,
		},
		Horizon: *horizon, Warmup: *warmup, Seed: *seed,
		Piggyback: *piggyback, Slew: *slew,
		MaxDedicated:   *maxDed,
		TotalStreams:   *streams,
		Faults:         sched,
		Engine:         sim.Engine(*engine),
		FluidThreshold: *fluidThreshold,
		ParticleRate:   *particleRate,
	}
	if *resumeDir != "" {
		if cfg.Tracer != nil {
			// A resumed run replays silently to its boundary, so a trace
			// would be missing everything before the crash.
			fatal(fmt.Errorf("-trace is incompatible with -resume"))
		}
		if err := os.MkdirAll(*resumeDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *reps > 1 {
		if cfg.Tracer != nil {
			fatal(fmt.Errorf("-trace is incompatible with -replications"))
		}
		var rep *sim.Replication
		var err error
		if *resumeDir != "" {
			var info checkpoint.Resumed
			rep, info, err = sim.ReplicateResumableCtx(context.Background(), cfg, *reps, *resumeDir)
			if err == nil && (info.Items > 0 || info.TornBytes > 0) {
				fmt.Fprintf(os.Stderr, "vodsim: resumed %d of %d replications from %s (torn tail: %d bytes)\n",
					info.Items, *reps, *resumeDir, info.TornBytes)
			}
		} else {
			rep, err = sim.Replicate(cfg, *reps)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replicated %d × %g min of l=%g B=%.1f n=%d (w=%.3f)\n",
			*reps, *horizon, *l, buf, *n, (*l-buf)/float64(*n))
		fmt.Printf("pooled hit=%.4f over %d resumes; replication CI95 ±%.4f\n",
			rep.HitProbability(), rep.PooledHits.N(), rep.HitCI95())
		fmt.Printf("dedicated avg=%.2f; batch avg=%.2f; max wait=%.3f\n",
			rep.AvgDedicated.Mean(), rep.AvgBatch.Mean(), rep.MaxWait)
		if *compare {
			printModelComparison(*l, buf, *n, *rFF, *rRW, *pFF, *pRW, *pPAU, dur, rep.HitProbability())
		}
		return
	}

	s, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}
	var res *sim.Result
	if *resumeDir != "" {
		res, err = runResumable(s, cfg, *resumeDir, *ckptEvery)
	} else {
		res, err = s.Run()
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simulated %g min of l=%g B=%.1f n=%d (w=%.3f)\n",
		*horizon, *l, buf, *n, (*l-buf)/float64(*n))
	fmt.Print(res.Summary())

	if *compare {
		printModelComparison(*l, buf, *n, *rFF, *rRW, *pFF, *pRW, *pPAU, dur, res.HitProbability())
	}
}

// runResumable executes a single run with periodic checkpoints in dir,
// resuming from an existing checkpoint first (see sim.RunSnapshotted).
func runResumable(s *sim.Simulator, cfg sim.Config, dir string, every int) (*sim.Result, error) {
	ctx := context.Background()
	return sim.RunSnapshotted(filepath.Join(dir, "sim.ckpt"), checkpoint.KindSimRun,
		checkpoint.Identity("vodsim.run", cfg),
		func(sink func(sim.Checkpoint) error) (*sim.Result, error) {
			return s.RunCheckpointedCtx(ctx, every, sink)
		},
		func(cp sim.Checkpoint, sink func(sim.Checkpoint) error) (*sim.Result, error) {
			fmt.Fprintf(os.Stderr, "vodsim: resuming from checkpoint at t=%.2f (%d events) in %s\n", cp.Now, cp.Fired, dir)
			return s.ResumeCheckpointedCtx(ctx, cp, every, sink)
		})
}

// printModelComparison prints the analytic prediction next to a measured
// hit probability.
func printModelComparison(l, b float64, n int, rFF, rRW, pFF, pRW, pPAU float64, dur dist.Distribution, measured float64) {
	model, err := analytic.New(analytic.Config{
		L: l, B: b, N: n, RatePB: 1, RateFF: rFF, RateRW: rRW,
	})
	if err != nil {
		fatal(err)
	}
	p, err := model.HitMix(analytic.Mix{
		PFF: pFF, PRW: pRW, PPAU: pPAU, FF: dur, RW: dur, PAU: dur,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("analytic model: P(hit) = %.4f (sim %.4f, Δ %+.4f)\n", p, measured, measured-p)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vodsim:", err)
	os.Exit(1)
}

package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/metrics"
	"vodalloc/internal/parallel"
)

// Replication runs R independent replications of one configuration
// (seeds seed+0 … seed+R−1) concurrently and pools the measurements.
// Independent replications give clean confidence intervals for the hit
// probability — each run's estimate is an i.i.d. sample — unlike the
// within-run Wilson interval, which ignores the mild autocorrelation of
// consecutive resumes by the same viewer.
type Replication struct {
	// PooledHits pools every resume event across replications.
	PooledHits metrics.Proportion
	// PerRun collects each replication's hit estimate; Runs summarizes
	// them (its CI95 is the replication-based interval).
	PerRun []float64
	Runs   metrics.Welford
	// AvgDedicated and AvgBatch average the per-run occupancies.
	AvgDedicated metrics.Welford
	AvgBatch     metrics.Welford
	// MaxWait is the largest wait seen in any replication.
	MaxWait float64
}

// HitProbability returns the pooled estimate.
func (r *Replication) HitProbability() float64 { return r.PooledHits.Estimate() }

// HitCI95 returns the replication-based 95% confidence half-width.
func (r *Replication) HitCI95() float64 { return r.Runs.CI95() }

// Replicate runs cfg R times with seeds cfg.Seed … cfg.Seed+R−1, up to
// GOMAXPROCS replications in flight at once. Each replication gets its
// own Simulator; the shared cfg is copied by value.
func Replicate(cfg Config, runs int) (*Replication, error) {
	return ReplicateCtx(context.Background(), cfg, runs)
}

// ReplicateCtx is Replicate with cancellation checkpoints: the context
// is threaded into the worker pool (no new replications start once it is
// done) and into each in-flight run (which stops within ctxCheckEvents
// simulation events), so a canceled request frees its workers promptly.
func ReplicateCtx(ctx context.Context, cfg Config, runs int) (*Replication, error) {
	rep, _, err := replicate(ctx, cfg, runs, "")
	return rep, err
}

// ReplicateResumableCtx is ReplicateCtx backed by a work-item journal
// in dir: each completed replication is durably recorded before the
// sweep moves on, and a rerun after a crash restores completed
// replications from the journal instead of recomputing them. The merged
// Replication is byte-identical to an uninterrupted ReplicateCtx run —
// whatever point the previous process died at, and at any worker count.
// The journal is keyed to (runs, cfg); resuming with a changed
// configuration refuses the stale journal with checkpoint.ErrIdentity.
func ReplicateResumableCtx(ctx context.Context, cfg Config, runs int, dir string) (*Replication, checkpoint.Resumed, error) {
	return replicate(ctx, cfg, runs, filepath.Join(dir, "replications.wal"))
}

// runRecord is one replication's summary — exactly the fields the merge
// consumes, and what a resumable sweep journals.
type runRecord struct {
	Successes, Trials                    uint64
	Est, AvgDedicated, AvgBatch, MaxWait float64
}

// replicate runs the replications through checkpoint.Map, journaling
// them at path when it is non-empty, and merges the records in index
// order — one merge path for fresh and resumed sweeps, so resuming
// cannot drift from running clean.
func replicate(ctx context.Context, cfg Config, runs int, path string) (*Replication, checkpoint.Resumed, error) {
	if runs < 1 {
		return nil, checkpoint.Resumed{}, fmt.Errorf("%w: replications %d", ErrBadConfig, runs)
	}
	if err := cfg.Validate(); err != nil {
		return nil, checkpoint.Resumed{}, err
	}
	if cfg.Tracer != nil {
		// A shared tracer would interleave events from concurrent runs, and
		// a restored replication would emit none.
		return nil, checkpoint.Resumed{}, fmt.Errorf("%w: tracing is per-run; replicate without a Tracer", ErrBadConfig)
	}

	recs, info, err := checkpoint.Map(ctx, parallel.Opts{}, path, []any{"sim.replicate", runs, cfg}, runs,
		func(ctx context.Context, i int) (runRecord, error) {
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			s, err := New(c)
			if err != nil {
				return runRecord{}, err
			}
			res, err := s.RunCtx(ctx)
			if err != nil {
				return runRecord{}, err
			}
			// The Server dies here; hand its viewer slabs to the next run.
			s.releaseScratch()
			return runRecord{
				Successes: res.Hits.Successes(), Trials: res.Hits.N(),
				Est: res.HitProbability(), AvgDedicated: res.AvgDedicated,
				AvgBatch: res.AvgBatch, MaxWait: res.MaxWait,
			}, nil
		})
	if err != nil {
		var pe *parallel.Error
		if errors.As(err, &pe) {
			return nil, info, fmt.Errorf("replication %d: %w", pe.Index, pe.Err)
		}
		return nil, info, err
	}

	rep := &Replication{PerRun: make([]float64, 0, runs)}
	for _, r := range recs {
		rep.PooledHits.Merge(metrics.NewProportion(r.Successes, r.Trials))
		rep.PerRun = append(rep.PerRun, r.Est)
		rep.Runs.Add(r.Est)
		rep.AvgDedicated.Add(r.AvgDedicated)
		rep.AvgBatch.Add(r.AvgBatch)
		rep.MaxWait = math.Max(rep.MaxWait, r.MaxWait)
	}
	return rep, info, nil
}

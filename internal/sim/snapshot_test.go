package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/faults"
)

// snapshotConfig is deliberately tiny — a short horizon with a busy
// arrival rate and piggybacking enabled — so a run has a few hundred
// events and the every-boundary restore property below stays fast while
// still crossing batch restarts, VCR resumes, merges and departures.
func snapshotConfig() Config {
	c := baseConfig()
	c.L = 30
	c.B = 15
	c.N = 5
	c.ArrivalRate = 1
	c.Horizon = 120
	c.Warmup = 20
	c.Seed = 7
	c.Piggyback = true
	return c
}

// faultedSnapshotConfig is snapshotConfig on a capped two-disk array
// with a fault timeline inside the horizon: disk failures and a repair,
// a transient allocation glitch and a buffer loss, each fired as a
// typed fault event.
func faultedSnapshotConfig(t *testing.T) Config {
	t.Helper()
	c := snapshotConfig()
	c.TotalStreams = 2 * StreamsPerDisk
	sched, err := faults.Parse("fail@30:d0,glitch@45:4,bufloss@55,repair@70:d0,fail@90:d1")
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = sched
	return c
}

// TestResumeAtEveryCheckpointBoundary is the checkpointing property
// test: collect a checkpoint at every event boundary of a clean run,
// then for each one build a fresh simulator, restore to it by replay,
// and require the finished Result to equal the uninterrupted run's
// exactly — a crash at any instant loses nothing. The faulted
// configuration crosses every fault kind's typed event.
func TestResumeAtEveryCheckpointBoundary(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"plain", snapshotConfig()},
		{"faulted", faultedSnapshotConfig(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			clean, err := mustSim(t, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if f := clean.Faults; len(cfg.Faults) > 0 && (f.DiskFailures < 2 || f.DiskRepairs < 1 || f.PartitionsLost < 1) {
				t.Fatalf("fault timeline did not take effect: %+v", f)
			}

			var cps []Checkpoint
			ckpt, err := mustSim(t, cfg).RunCheckpointedCtx(context.Background(), 1, func(cp Checkpoint) error {
				cps = append(cps, cp)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ckpt, clean) {
				t.Fatal("checkpointing perturbed the run: results differ")
			}
			if len(cps) < 100 {
				t.Fatalf("only %d checkpoints; config too small to exercise the property", len(cps))
			}

			for i, cp := range cps {
				res, err := mustSim(t, cfg).ResumeCheckpointedCtx(context.Background(), cp, 64, nil)
				if err != nil {
					t.Fatalf("resume at boundary %d (fired=%d): %v", i, cp.Fired, err)
				}
				if !reflect.DeepEqual(res, clean) {
					t.Fatalf("resume at boundary %d (fired=%d, now=%v) diverged from the clean run", i, cp.Fired, cp.Now)
				}
			}
		})
	}
}

// TestResumeRefusesForeignCheckpoint: restoring a checkpoint against a
// differently-seeded configuration must fail with
// ErrCheckpointMismatch, not continue from the wrong state.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	cfg := snapshotConfig()
	var cps []Checkpoint
	if _, err := mustSim(t, cfg).RunCheckpointedCtx(context.Background(), 1, func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cp := cps[len(cps)/2]

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := mustSim(t, other).ResumeCheckpointedCtx(context.Background(), cp, 64, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("foreign seed: want ErrCheckpointMismatch, got %v", err)
	}

	// A boundary beyond the run's event count exhausts the queue.
	far := Checkpoint{Fired: cp.Fired + 1<<20, Now: cp.Now, Digest: cp.Digest}
	if _, err := mustSim(t, cfg).ResumeCheckpointedCtx(context.Background(), far, 64, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("unreachable boundary: want ErrCheckpointMismatch, got %v", err)
	}
}

// TestCheckpointSinkErrorStopsRun: a failed checkpoint write must stop
// the simulation with that error rather than run on without
// durability.
func TestCheckpointSinkErrorStopsRun(t *testing.T) {
	boom := errors.New("disk full")
	calls := 0
	_, err := mustSim(t, snapshotConfig()).RunCheckpointedCtx(context.Background(), 8, func(Checkpoint) error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("sink called %d times after error, want exactly 3", calls)
	}
}

// TestRunSnapshotted drives the replay-snapshot file: a run killed
// after its third checkpoint leaves the snapshot behind, a snapshot of
// another kind or identity is refused before any replay, and a rerun
// resumes to the uninterrupted result and removes the file.
func TestRunSnapshotted(t *testing.T) {
	ctx := context.Background()
	cfg := snapshotConfig()
	clean, err := mustSim(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	const identity = 42
	killed := errors.New("killed")
	_, err = RunSnapshotted(path, checkpoint.KindSimRun, identity,
		func(sink func(Checkpoint) error) (*Result, error) {
			n := 0
			return mustSim(t, cfg).RunCheckpointedCtx(ctx, 20, func(cp Checkpoint) error {
				if err := sink(cp); err != nil {
					return err
				}
				if n++; n == 3 {
					return killed
				}
				return nil
			})
		}, nil)
	if !errors.Is(err, killed) {
		t.Fatalf("want the kill, got %v", err)
	}

	if _, err := RunSnapshotted[*Result](path, checkpoint.KindChurnRun, identity, nil, nil); !errors.Is(err, checkpoint.ErrKind) {
		t.Fatalf("wrong kind: want checkpoint.ErrKind, got %v", err)
	}
	if _, err := RunSnapshotted[*Result](path, checkpoint.KindSimRun, identity+1, nil, nil); !errors.Is(err, checkpoint.ErrIdentity) {
		t.Fatalf("wrong identity: want checkpoint.ErrIdentity, got %v", err)
	}

	var from Checkpoint
	res, err := RunSnapshotted(path, checkpoint.KindSimRun, identity, nil,
		func(cp Checkpoint, sink func(Checkpoint) error) (*Result, error) {
			from = cp
			return mustSim(t, cfg).ResumeCheckpointedCtx(ctx, cp, 20, sink)
		})
	if err != nil {
		t.Fatal(err)
	}
	if from.Fired != 60 || !reflect.DeepEqual(res, clean) {
		t.Fatalf("resumed from event %d to a result equal to the clean run: %t", from.Fired, reflect.DeepEqual(res, clean))
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a finished run left its snapshot: %v", err)
	}
}

func TestCheckpointWireRoundTrip(t *testing.T) {
	cp := Checkpoint{Fired: 12345, Now: 67.875, Digest: 0xdeadbeefcafef00d}
	data, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back != cp {
		t.Fatalf("round trip: %+v != %+v", back, cp)
	}
	if err := back.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("short payload accepted")
	}
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

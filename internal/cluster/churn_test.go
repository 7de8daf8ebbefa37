package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vodalloc/internal/sim"
	"vodalloc/internal/workload"
)

// churnCatalog sizes a small Zipf catalog by hand (sizing-free, so the
// tests stay fast): every movie gets a 10-stream, 8-buffer, 0.7-hit
// per-copy allocation.
func churnCatalog(t *testing.T, n int) ([]workload.Movie, []MovieAlloc) {
	t.Helper()
	movies, err := workload.ZipfCatalog(n, 0.8)
	if err != nil {
		t.Fatalf("ZipfCatalog: %v", err)
	}
	allocs := make([]MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = MovieAlloc{Movie: m.Name, N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	return movies, allocs
}

// flashScenario builds the seeded flash-crowd configuration the
// acceptance criterion pins: a 6-movie Zipf catalog on 4 nodes with
// ~60% steady-state headroom, and a 4× burst on the hottest title. The
// cluster as a whole can absorb the burst — but only if replicas of the
// hot movie spread beyond its one placed node.
func flashScenario(t *testing.T, off bool) ChurnConfig {
	t.Helper()
	movies, allocs := churnCatalog(t, 6)
	p, err := PackAllocs(allocs, UniformNodes(4, 30, 40), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return ChurnConfig{
		Placement: p,
		Workload: workload.DynamicWorkload{
			Movies:   movies,
			BaseRate: 0.5,
			Flashes: []workload.FlashCrowd{
				{Movie: "m01", At: 300, Peak: 4, Ramp: 10, Hold: 60, Decay: 30},
			},
		},
		Horizon: 900,
		Warmup:  100,
		Seed:    7,
		Controller: ControllerConfig{
			Interval:    10,
			Cooldown:    15,
			BudgetBytes: 20e9,
		},
		ControllerOff: off,
		Window:        60,
	}
}

// churnFloor is the stated availability floor of the acceptance
// criterion: the controlled run must hold it through the flash crowd,
// and the identical frozen-placement run must breach it.
const churnFloor = 0.85

func TestChurnFlashCrowdControllerHoldsFloor(t *testing.T) {
	ctx := context.Background()
	controlled, err := RunChurn(ctx, flashScenario(t, false))
	if err != nil {
		t.Fatalf("controlled run: %v", err)
	}
	frozen, err := RunChurn(ctx, flashScenario(t, true))
	if err != nil {
		t.Fatalf("frozen run: %v", err)
	}

	if controlled.FloorAvailability < churnFloor {
		t.Errorf("controlled floor availability = %.4f, want >= %.2f\n%s",
			controlled.FloorAvailability, churnFloor, controlled.Summary())
	}
	if frozen.FloorAvailability >= churnFloor {
		t.Errorf("frozen floor availability = %.4f — the baseline should breach %.2f\n%s",
			frozen.FloorAvailability, churnFloor, frozen.Summary())
	}
	if controlled.FloorAvailability <= frozen.FloorAvailability {
		t.Errorf("controller did not improve the floor: controlled %.4f <= frozen %.4f",
			controlled.FloorAvailability, frozen.FloorAvailability)
	}

	cs := controlled.Controller
	if cs.ReplicaAdds == 0 {
		t.Errorf("controller made no replica adds under a 4x flash crowd\n%s", controlled.Summary())
	}
	if budget := flashScenario(t, false).Controller.BudgetBytes; cs.SpentBytes > budget {
		t.Errorf("migration bytes %.0f exceed budget %.0f", cs.SpentBytes, budget)
	}
	if controlled.TimeToConverge < 0 {
		t.Errorf("controller never reconverged after the flash\n%s", controlled.Summary())
	}

	fs := frozen.Controller
	if fs.MigrationsStarted != 0 || fs.ReplicaAdds != 0 || fs.SpentBytes != 0 {
		t.Errorf("frozen run shows controller activity: %+v", fs)
	}
}

// TestChurnFlashPlusOutage is the chaos scenario of the acceptance
// criterion: the flash crowd lands while the hot movie's primary node
// is down. The controlled run migrates off the surviving replica and
// holds the floor; the frozen run is pinned to one saturated copy.
func TestChurnFlashPlusOutage(t *testing.T) {
	build := func(off bool) ChurnConfig {
		cfg := flashScenario(t, off)
		movies, allocs := churnCatalog(t, 6)
		// Two replicas of the hot title so the controller has a live
		// migration source while the primary is out.
		p, err := PackAllocs(allocs, UniformNodes(4, 30, 40), Options{Replicas: 2, HotMovies: 1})
		if err != nil {
			t.Fatalf("PackAllocs: %v", err)
		}
		cfg.Placement = p
		cfg.Workload.Movies = movies
		primary := p.Replicas("m01")[0].Node
		cfg.Faults = []NodeFault{{Node: primary, At: 290, Until: 450}}
		return cfg
	}
	ctx := context.Background()
	controlled, err := RunChurn(ctx, build(false))
	if err != nil {
		t.Fatalf("controlled run: %v", err)
	}
	frozen, err := RunChurn(ctx, build(true))
	if err != nil {
		t.Fatalf("frozen run: %v", err)
	}
	if controlled.FloorAvailability < churnFloor {
		t.Errorf("controlled floor = %.4f under flash+outage, want >= %.2f\n%s",
			controlled.FloorAvailability, churnFloor, controlled.Summary())
	}
	if frozen.FloorAvailability >= controlled.FloorAvailability {
		t.Errorf("controller did not improve the floor under flash+outage: %.4f vs %.4f\n%s",
			controlled.FloorAvailability, frozen.FloorAvailability, frozen.Summary())
	}
	if b := build(false).Controller.BudgetBytes; controlled.Controller.SpentBytes > b {
		t.Errorf("migration bytes %.0f exceed budget %.0f", controlled.Controller.SpentBytes, b)
	}
}

// TestChurnDeterminism pins byte-for-byte reproducibility: identical
// configurations yield identical results (the foundation the replay
// checkpoints stand on).
func TestChurnDeterminism(t *testing.T) {
	ctx := context.Background()
	a, err := RunChurn(ctx, flashScenario(t, false))
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := RunChurn(ctx, flashScenario(t, false))
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\nA: %+v\nB: %+v", a, b)
	}
}

// TestChurnResumeBitExact replays a mid-run checkpoint — taken while
// migrations were in flight — and requires the resumed run to land on
// exactly the full run's result.
func TestChurnResumeBitExact(t *testing.T) {
	ctx := context.Background()
	cfg := flashScenario(t, false)

	var cps []sim.Checkpoint
	full, err := RunChurnCheckpointed(ctx, cfg, 500, func(cp sim.Checkpoint) error {
		cps = append(cps, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints, want more for a mid-run pick", len(cps))
	}

	for _, pick := range []int{0, len(cps) / 2, len(cps) - 1} {
		resumed, err := ResumeChurnCheckpointed(ctx, cfg, cps[pick], 500, nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (fired=%d): %v", pick, cps[pick].Fired, err)
		}
		if !reflect.DeepEqual(full, resumed) {
			t.Fatalf("resume from checkpoint %d diverged:\nfull:    %+v\nresumed: %+v",
				pick, full, resumed)
		}
	}
}

// TestChurnResumeRefusesDrift pins the failure mode: a checkpoint
// replayed against a different seed must be refused, not silently
// continued.
func TestChurnResumeRefusesDrift(t *testing.T) {
	ctx := context.Background()
	cfg := flashScenario(t, false)
	var cps []sim.Checkpoint
	if _, err := RunChurnCheckpointed(ctx, cfg, 500, func(cp sim.Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	drifted := cfg
	drifted.Seed++
	_, err := ResumeChurnCheckpointed(ctx, drifted, cps[len(cps)/2], 0, nil)
	if !errors.Is(err, sim.ErrCheckpointMismatch) {
		t.Fatalf("resume under a drifted seed: %v, want ErrCheckpointMismatch", err)
	}
	// A boundary past the run's end cannot be replayed to.
	far := cps[len(cps)-1]
	far.Fired *= 4
	if _, err := ResumeChurnCheckpointed(ctx, cfg, far, 0, nil); !errors.Is(err, sim.ErrCheckpointMismatch) {
		t.Fatalf("resume past the end: %v, want ErrCheckpointMismatch", err)
	}
}

// TestChurnIdentityDiscriminates checks the snapshot key covers the
// fields that shape a run.
func TestChurnIdentityDiscriminates(t *testing.T) {
	base := flashScenario(t, false)
	seen := map[uint64]string{base.Identity(): "base"}
	variants := map[string]func(*ChurnConfig){
		"seed":       func(c *ChurnConfig) { c.Seed++ },
		"horizon":    func(c *ChurnConfig) { c.Horizon += 10 },
		"warmup":     func(c *ChurnConfig) { c.Warmup += 10 },
		"off":        func(c *ChurnConfig) { c.ControllerOff = true },
		"budget":     func(c *ChurnConfig) { c.Controller.BudgetBytes /= 2 },
		"interval":   func(c *ChurnConfig) { c.Controller.Interval = 20 },
		"rate":       func(c *ChurnConfig) { c.Workload.BaseRate *= 2 },
		"flash-peak": func(c *ChurnConfig) { c.Workload.Flashes[0].Peak = 8 },
		"window":     func(c *ChurnConfig) { c.Window = 30 },
		"fault":      func(c *ChurnConfig) { c.Faults = []NodeFault{{Node: "node0", At: 100}} },
		"diurnal":    func(c *ChurnConfig) { c.Workload.Diurnal = &workload.Diurnal{Period: 1440, Amplitude: 0.3} },
		"drift":      func(c *ChurnConfig) { c.Workload.Drift = &workload.ZipfDrift{Theta0: 0.8, Theta1: 0.2, Period: 500} },
	}
	for name, mutate := range variants {
		c := flashScenario(t, false)
		mutate(&c)
		id := c.Identity()
		if prev, dup := seen[id]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[id] = name
	}
}

// TestChurnValidate exercises the configuration guards.
func TestChurnValidate(t *testing.T) {
	good := flashScenario(t, false)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Horizon = 0 },
		func(c *ChurnConfig) { c.Warmup = c.Horizon },
		func(c *ChurnConfig) { c.Window = -1 },
		func(c *ChurnConfig) { c.Workload.BaseRate = 0 },
		func(c *ChurnConfig) { c.Faults = []NodeFault{{Node: "nope", At: 10}} },
		func(c *ChurnConfig) { c.Workload.Movies = c.Workload.Movies[:3] },
		func(c *ChurnConfig) { c.Controller.MaxConcurrent = -1 },
	}
	for i, mutate := range bad {
		c := flashScenario(t, false)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// blindDriftScenario is the control-plane benchmark's blind scenario at
// smoke size: 24 Zipf titles replicated twice on 8 nodes, a drifting
// popularity law, a 4× flash on m01 and the rebalancer on blind routing
// (RouteLoad), plus a node3 outage over t=200–400. The controller ticks
// every 10 minutes, so every tick shares its timestamp with an epoch
// boundary (DefaultEpoch is 5) and the equal-time event order decides
// which rates the tick sees.
func blindDriftScenario(t *testing.T) ChurnConfig {
	t.Helper()
	movies, err := workload.ZipfCatalog(24, 0.8)
	if err != nil {
		t.Fatalf("ZipfCatalog: %v", err)
	}
	allocs := make([]MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = MovieAlloc{Movie: m.Name, N: 40, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	p, err := PackAllocs(allocs, UniformNodes(8, 300, 300), Options{Replicas: 2})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return ChurnConfig{
		Placement: p,
		Workload: workload.DynamicWorkload{
			Movies:   movies,
			BaseRate: 12,
			Drift:    &workload.ZipfDrift{Theta0: 0.8, Theta1: 1.1, Period: 600, Rotate: 60},
			Flashes:  []workload.FlashCrowd{{Movie: "m01", At: 150, Peak: 4, Ramp: 10, Hold: 60, Decay: 30}},
		},
		Horizon:    600,
		Warmup:     100,
		Seed:       1,
		Window:     60,
		Controller: ControllerConfig{Interval: 10, Cooldown: 15, BudgetBytes: 60e9},
		Faults:     []NodeFault{{Node: "node3", At: 200, Until: 400}},
	}
}

// TestChurnBlindDriftPinned pins the blind, drifting, controlled run's
// Summary and the digest of every event boundary. The epoch re-draws,
// controller ticks, migrations and outage edges that share timestamps
// make the fold sensitive to the equal-time event order, which no
// static scenario exercises.
func TestChurnBlindDriftPinned(t *testing.T) {
	const (
		wantSummary = "0979998e0c29c581d03599088c56dc666a439de2e4f77840ca647568da50c681"
		wantFold    = 0x9b8249e716784c64
		wantLast    = 0xf3bdea6d6f8ae1ff
	)
	fold := uint64(1469598103934665603)
	var last sim.Checkpoint
	res, err := RunChurnCheckpointed(context.Background(), blindDriftScenario(t), 1, func(cp sim.Checkpoint) error {
		fold ^= cp.Digest
		fold *= 1099511628211
		last = cp
		return nil
	})
	if err != nil {
		t.Fatalf("RunChurnCheckpointed: %v", err)
	}
	if res.Controller.MigrationsStarted == 0 || res.Failovers == 0 || res.TimeToConverge < 0 {
		t.Fatalf("scenario no longer migrates, fails over and reconverges:\n%s", res.Summary())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Summary()))); got != wantSummary {
		t.Errorf("Summary sha256 = %s, want %s\n%s", got, wantSummary, res.Summary())
	}
	if fold != wantFold || last.Digest != wantLast {
		t.Errorf("checkpoint digests fold %016x last %016x (fired %d), want %016x and %016x",
			fold, last.Digest, last.Fired, uint64(wantFold), uint64(wantLast))
	}
}

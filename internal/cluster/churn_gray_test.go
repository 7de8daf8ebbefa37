package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"vodalloc/internal/sim"
	"vodalloc/internal/workload"
)

// grayScenario is the gray-failure timeline the policy comparison and
// the resume test share: a frozen 4-node placement (controller off, so
// the routing policy alone explains any difference) hit by a 12× slow
// disk on node0 over t=300–700 and a 0.4 brownout on node2 over
// t=400–800.
func grayScenario(t *testing.T, pol RoutePolicy) ChurnConfig {
	t.Helper()
	movies, allocs := churnCatalog(t, 6)
	p, err := PackAllocs(allocs, UniformNodes(4, 60, 60), Options{Replicas: 2})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return ChurnConfig{
		Placement: p,
		Workload: workload.DynamicWorkload{
			Movies:   movies,
			BaseRate: 0.8,
		},
		Horizon:       1000,
		Warmup:        100,
		Seed:          11,
		ControllerOff: true,
		Controller: ControllerConfig{
			Interval:    10,
			Cooldown:    15,
			BudgetBytes: 20e9,
		},
		Window: 60,
		Gray: []GrayFault{
			{Kind: GraySlow, Node: "node0", At: 300, Until: 700, Factor: 12},
			{Kind: GrayBrownout, Node: "node2", At: 400, Until: 800, Factor: 0.4},
		},
		Policy: pol,
	}
}

// TestChurnGrayDeterminism pins replay: the same gray configuration
// run twice yields identical results, counters and health included.
func TestChurnGrayDeterminism(t *testing.T) {
	ctx := context.Background()
	a, err := RunChurn(ctx, grayScenario(t, PolicyHedge))
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := RunChurn(ctx, grayScenario(t, PolicyHedge))
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gray runs diverged:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

// TestChurnGrayPolicies is the tentpole acceptance comparison: under
// the same slow-disk + brownout timeline, health-aware routing beats
// blind routing, and hedging beats both on tail wait — strictly better
// availability floor and P99 wait than blind.
func TestChurnGrayPolicies(t *testing.T) {
	ctx := context.Background()
	run := func(pol RoutePolicy) *ChurnResult {
		res, err := RunChurn(ctx, grayScenario(t, pol))
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		return res
	}
	blind := run(PolicyBlind)
	health := run(PolicyHealth)
	hedge := run(PolicyHedge)

	// The blind router keeps feeding the slow node: viewers starve.
	if blind.Starved == 0 {
		t.Fatalf("blind run starved nobody — the gray faults are not biting\n%s", blind.Summary())
	}
	if blind.Gray.Quarantines != 0 || blind.Gray.Hedges != 0 {
		t.Fatalf("blind run acted on health: %+v", blind.Gray)
	}
	// Health-aware routing detects and reacts.
	if health.Gray.Suspects == 0 || health.Gray.Quarantines == 0 {
		t.Fatalf("health run never quarantined the slow node\n%s", health.Summary())
	}
	if hedge.Gray.Hedges == 0 {
		t.Fatalf("hedge run never hedged\n%s", hedge.Summary())
	}
	if hedge.Gray.Hedges != hedge.Gray.HedgeCancels {
		t.Fatalf("hedge cancels %d != hedges %d", hedge.Gray.HedgeCancels, hedge.Gray.Hedges)
	}

	// The acceptance ordering: strictly better floor and P99 than blind.
	if !(health.FloorAvailability > blind.FloorAvailability) {
		t.Errorf("health floor %.4f not above blind %.4f\nblind:\n%s\nhealth:\n%s",
			health.FloorAvailability, blind.FloorAvailability, blind.Summary(), health.Summary())
	}
	if !(hedge.FloorAvailability > blind.FloorAvailability) {
		t.Errorf("hedge floor %.4f not above blind %.4f\nblind:\n%s\nhedge:\n%s",
			hedge.FloorAvailability, blind.FloorAvailability, blind.Summary(), hedge.Summary())
	}
	if !(hedge.WaitP99 < blind.WaitP99) {
		t.Errorf("hedge P99 wait %.2f not below blind %.2f\nblind:\n%s\nhedge:\n%s",
			hedge.WaitP99, blind.WaitP99, blind.Summary(), hedge.Summary())
	}
	if !(hedge.Starved < blind.Starved) {
		t.Errorf("hedge starved %d not below blind %d", hedge.Starved, blind.Starved)
	}
	for _, res := range []*ChurnResult{blind, health, hedge} {
		if len(res.NodeHealth) != 4 {
			t.Fatalf("gray run reported %d node healths, want 4", len(res.NodeHealth))
		}
		if res.WaitMean <= 0 || res.WaitMax < res.WaitP99 || res.WaitP99 < res.WaitP50 {
			t.Fatalf("wait quantiles inconsistent: mean=%v p50=%v p99=%v max=%v",
				res.WaitMean, res.WaitP50, res.WaitP99, res.WaitMax)
		}
	}
}

// TestChurnNonGrayUnchanged pins the baseline: a run with no gray
// faults and the default policy reports no gray measurements at all —
// the pre-gray semantics (availability = admitted/arrivals) hold
// exactly.
func TestChurnNonGrayUnchanged(t *testing.T) {
	res, err := RunChurn(context.Background(), flashScenario(t, true))
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.Starved != 0 || res.NodeHealth != nil || res.Gray != (GrayRouterStats{}) {
		t.Fatalf("non-gray run has gray measurements: starved=%d health=%v gray=%+v",
			res.Starved, res.NodeHealth, res.Gray)
	}
	if res.WaitMean != 0 || res.WaitMax != 0 {
		t.Fatalf("non-gray run has wait stats: mean=%v max=%v", res.WaitMean, res.WaitMax)
	}
	if res.Arrivals > 0 && res.Availability != float64(res.Admitted)/float64(res.Arrivals) {
		t.Fatalf("availability %v != admitted/arrivals", res.Availability)
	}
}

// TestChurnGrayIdentity pins snapshot keying: gray parameters fold
// into the config identity (a checkpoint under one policy or fault
// timeline refuses to restore under another), and so do gray fields
// that are inert on a run with no gray machinery — the identity hashes
// the whole config, so a changed field is a refusal, never a silent
// accept.
func TestChurnGrayIdentity(t *testing.T) {
	base := grayScenario(t, PolicyHedge)
	if base.Identity() == grayScenario(t, PolicyHealth).Identity() {
		t.Error("identity ignores the routing policy")
	}
	moved := grayScenario(t, PolicyHedge)
	moved.Gray[0].At = 301
	if base.Identity() == moved.Identity() {
		t.Error("identity ignores the gray fault timeline")
	}
	starve := grayScenario(t, PolicyHedge)
	starve.StarveWait = 5
	if base.Identity() == starve.Identity() {
		t.Error("identity ignores StarveWait")
	}

	plain := grayScenario(t, PolicyBlind)
	plain.Gray = nil
	if plain.grayActive() {
		t.Fatal("blind policy with no faults counts as gray-active")
	}
	tweaked := grayScenario(t, PolicyBlind)
	tweaked.Gray = nil
	tweaked.Health.HedgeBudget = 2 // inert without gray machinery
	if plain.Identity() == tweaked.Identity() {
		t.Error("identity ignores an inert Health.HedgeBudget")
	}
	tweaked = grayScenario(t, PolicyBlind)
	tweaked.Gray = nil
	tweaked.StarveWait = 3
	if plain.Identity() == tweaked.Identity() {
		t.Error("identity ignores an inert StarveWait")
	}
}

// TestChurnGrayResumeMidQuarantine is the satellite: a checkpoint
// captured while a node is quarantined restores to bit-identical
// results — hedge counters, health states and wait quantiles included.
func TestChurnGrayResumeMidQuarantine(t *testing.T) {
	ctx := context.Background()
	cfg := grayScenario(t, PolicyHedge)

	// Golden run, collecting a checkpoint from deep inside the fault
	// window (t≈500: node0 quarantined, node2 browned out).
	var mid sim.Checkpoint
	golden, err := RunChurnCheckpointed(ctx, cfg, 64, func(cp sim.Checkpoint) error {
		if cp.Now >= 500 && mid.Fired == 0 {
			mid = cp
		}
		return nil
	})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if mid.Fired == 0 {
		t.Fatal("no checkpoint captured at t>=500")
	}
	if golden.Gray.Quarantines == 0 {
		t.Fatalf("scenario never quarantined — checkpoint is not mid-quarantine\n%s", golden.Summary())
	}

	resumed, err := ResumeChurnCheckpointed(ctx, cfg, mid, 0, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(golden, resumed) {
		t.Fatalf("resumed result diverged from golden:\n%s\nvs\n%s", golden.Summary(), resumed.Summary())
	}

	// A different gray timeline must refuse the checkpoint outright
	// (identity) or fail digest verification.
	other := grayScenario(t, PolicyHealth)
	if _, err := ResumeChurnCheckpointed(ctx, other, mid, 0, nil); err == nil {
		t.Fatal("checkpoint restored under a different routing policy")
	}
}

// evacuateScenario arms the full health-aware control plane on the
// gray timeline: controller on with proactive evacuation (dwell 10,
// shorter than the health machine's 30-minute probation dwell) and a
// byte budget with headroom past the warmup's demand-driven adds, so
// the drains themselves are what the budget meters.
func evacuateScenario(t *testing.T) ChurnConfig {
	t.Helper()
	cfg := grayScenario(t, PolicyHedge)
	cfg.ControllerOff = false
	cfg.Controller.BudgetBytes = 60e9
	cfg.Controller.EvacuateDwell = 10
	return cfg
}

// TestChurnResumeMidEvacuation is the satellite resume check for the
// evacuation machinery: a checkpoint captured while the controller is
// mid-drain — quarantined node dwelling, evacuation migrations in
// flight — restores to bit-identical results, evacuation ledger
// included, and a config with a different dwell refuses the snapshot.
func TestChurnResumeMidEvacuation(t *testing.T) {
	ctx := context.Background()
	cfg := evacuateScenario(t)

	var mid sim.Checkpoint
	golden, err := RunChurnCheckpointed(ctx, cfg, 64, func(cp sim.Checkpoint) error {
		// t≈500: node0 has quarantined (fault lands at 300) and sat past
		// the 10-minute dwell, so the drain is underway or done.
		if cp.Now >= 500 && mid.Fired == 0 {
			mid = cp
		}
		return nil
	})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if mid.Fired == 0 {
		t.Fatal("no checkpoint captured at t>=500")
	}
	if golden.Controller.Evacuations == 0 {
		t.Fatalf("scenario never evacuated — the checkpoint window is empty\n%s", golden.Summary())
	}

	resumed, err := ResumeChurnCheckpointed(ctx, cfg, mid, 0, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(golden, resumed) {
		t.Fatalf("resumed result diverged from golden:\n%s\nvs\n%s", golden.Summary(), resumed.Summary())
	}

	other := evacuateScenario(t)
	other.Controller.EvacuateDwell = 20
	if _, err := ResumeChurnCheckpointed(ctx, other, mid, 0, nil); err == nil {
		t.Fatal("checkpoint restored under a different evacuation dwell")
	}
}

// TestChurnDiskQuarantine pins per-disk health: a 12× slowdown scoped
// to ONE of node0's four disks quarantines that disk (DiskQuarantines
// fires) while the node itself keeps serving from the healthy
// siblings — so the same fault hurts strictly less than it would
// spread across the whole node.
func TestChurnDiskQuarantine(t *testing.T) {
	ctx := context.Background()
	diskCfg := grayScenario(t, PolicyHealth)
	for i := range diskCfg.Placement.Nodes {
		diskCfg.Placement.Nodes[i].Disks = 4
	}
	diskCfg.Gray = []GrayFault{{Kind: GraySlow, Node: "node0", Disk: 1, At: 300, Until: 700, Factor: 12}}
	diskCfg.Health.DiskHealth = true
	diskRes, err := RunChurn(ctx, diskCfg)
	if err != nil {
		t.Fatalf("disk-scoped run: %v", err)
	}
	if diskRes.Gray.DiskQuarantines == 0 {
		t.Fatalf("slow disk never quarantined: %+v\n%s", diskRes.Gray, diskRes.Summary())
	}
	if diskRes.Gray.DiskSuspects == 0 {
		t.Fatalf("slow disk never suspected: %+v", diskRes.Gray)
	}

	// The same fault across the whole node (all four disks) must hurt at
	// least as much: one sick disk out of four leaves three serving.
	nodeCfg := grayScenario(t, PolicyHealth)
	for i := range nodeCfg.Placement.Nodes {
		nodeCfg.Placement.Nodes[i].Disks = 4
	}
	nodeCfg.Gray = []GrayFault{{Kind: GraySlow, Node: "node0", At: 300, Until: 700, Factor: 12}}
	nodeCfg.Health.DiskHealth = true
	nodeRes, err := RunChurn(ctx, nodeCfg)
	if err != nil {
		t.Fatalf("node-scoped run: %v", err)
	}
	if diskRes.Starved > nodeRes.Starved {
		t.Errorf("disk-scoped fault starved %d, whole-node %d — one sick disk hurt more than four",
			diskRes.Starved, nodeRes.Starved)
	}
	if diskRes.Availability < nodeRes.Availability {
		t.Errorf("disk-scoped availability %.4f below whole-node %.4f",
			diskRes.Availability, nodeRes.Availability)
	}
}

// TestChurnDiskHealthSingleDiskNeutral pins the compatibility claim:
// with one disk per node (the default), turning DiskHealth on changes
// nothing observable — every headline number and gray counter matches
// the DiskHealth-off run exactly, because a single-disk node's disk IS
// the node and the disk machine stands down.
func TestChurnDiskHealthSingleDiskNeutral(t *testing.T) {
	ctx := context.Background()
	off, err := RunChurn(ctx, grayScenario(t, PolicyHedge))
	if err != nil {
		t.Fatalf("off run: %v", err)
	}
	onCfg := grayScenario(t, PolicyHedge)
	onCfg.Health.DiskHealth = true
	on, err := RunChurn(ctx, onCfg)
	if err != nil {
		t.Fatalf("on run: %v", err)
	}
	if off.Availability != on.Availability || off.FloorAvailability != on.FloorAvailability ||
		off.Starved != on.Starved || off.WaitP99 != on.WaitP99 || off.WaitMax != on.WaitMax {
		t.Errorf("single-disk DiskHealth changed headline numbers:\noff:\n%s\non:\n%s",
			off.Summary(), on.Summary())
	}
	offGray, onGray := off.Gray, on.Gray
	// The disk counters themselves are allowed to differ (probes may be
	// attributed); everything node-level must match exactly.
	offGray.DiskSuspects, offGray.DiskQuarantines, offGray.DiskRestores, offGray.DiskProbes = 0, 0, 0, 0
	onGray.DiskSuspects, onGray.DiskQuarantines, onGray.DiskRestores, onGray.DiskProbes = 0, 0, 0, 0
	if offGray != onGray {
		t.Errorf("single-disk DiskHealth changed node-level gray counters:\noff %+v\non  %+v", offGray, onGray)
	}
}

// TestChurnHedgeBudget pins the adaptive hedge budget: under a
// fleet-wide brownout (hedging is pure amplification — everyone is
// slow), a small token bucket holds total hedges under burst + refill
// and counts the refusals, while the unlimited run hedges far more.
func TestChurnHedgeBudget(t *testing.T) {
	ctx := context.Background()
	brownout := func(budget float64) ChurnConfig {
		cfg := grayScenario(t, PolicyHedge)
		cfg.Gray = []GrayFault{
			{Kind: GrayBrownout, Node: "node0", At: 300, Until: 800, Factor: 0.4},
			{Kind: GrayBrownout, Node: "node1", At: 300, Until: 800, Factor: 0.4},
			{Kind: GrayBrownout, Node: "node2", At: 300, Until: 800, Factor: 0.4},
			{Kind: GrayBrownout, Node: "node3", At: 300, Until: 800, Factor: 0.4},
		}
		cfg.Health.HedgeBudget = budget
		return cfg
	}
	unlimited, err := RunChurn(ctx, brownout(0))
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	if unlimited.Gray.Hedges == 0 {
		t.Fatalf("fleet-wide brownout never hedged — budget has nothing to bound\n%s", unlimited.Summary())
	}
	if unlimited.Gray.HedgeDenied != 0 {
		t.Fatalf("unlimited run denied hedges: %+v", unlimited.Gray)
	}

	const budget = 3
	capped, err := RunChurn(ctx, brownout(budget))
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	// Token-bucket ceiling: the bucket starts full and refills at most
	// hedgeRefill (0.25) per routed arrival, health-scaled downward.
	ceiling := budget + 0.25*float64(capped.Arrivals)
	if float64(capped.Gray.Hedges) > ceiling {
		t.Errorf("capped run hedged %d times, past the bucket ceiling %.1f (arrivals %d)",
			capped.Gray.Hedges, ceiling, capped.Arrivals)
	}
	if capped.Gray.Hedges >= unlimited.Gray.Hedges {
		t.Errorf("budget %d did not reduce hedging: capped %d vs unlimited %d",
			budget, capped.Gray.Hedges, unlimited.Gray.Hedges)
	}
	if capped.Gray.HedgeDenied == 0 {
		t.Errorf("capped run under fleet-wide brownout denied nothing: %+v", capped.Gray)
	}
	if capped.Gray.HedgeWins > capped.Gray.Hedges {
		t.Errorf("hedge wins %d exceed hedges %d", capped.Gray.HedgeWins, capped.Gray.Hedges)
	}
}

// TestChurnGrayValidate pins the config-level typed rejections.
func TestChurnGrayValidate(t *testing.T) {
	bad := grayScenario(t, PolicyHedge)
	bad.Gray[0].Node = "nowhere"
	if err := bad.Validate(); err == nil {
		t.Error("unknown gray node validated")
	}
	bad = grayScenario(t, PolicyHedge)
	bad.Gray[0].Factor = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN gray factor validated")
	}
	bad = grayScenario(t, RoutePolicy(9))
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy validated")
	}
	bad = grayScenario(t, PolicyHedge)
	bad.StarveWait = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite starve wait validated")
	}
	bad = grayScenario(t, PolicyHedge)
	bad.Health.HedgeBudget = -1
	if err := bad.Validate(); err == nil {
		t.Error("bad health config validated")
	}
}

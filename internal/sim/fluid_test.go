package sim

import (
	"context"
	"math"
	"testing"

	"vodalloc/internal/dist"
	"vodalloc/internal/faults"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// fluidCmpConfig is the §4 validation configuration (fig7 shape) used
// for the DES/fluid comparisons.
func fluidCmpConfig(B float64, seed int64) Config {
	return Config{
		L: 120, B: B, N: 30,
		Rates:       vcr.Rates{PB: 1, FF: 3, RW: 3},
		ArrivalRate: 0.5,
		Profile:     workload.MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15)),
		Horizon:     1500, Warmup: 200,
		Seed: seed,
	}
}

// TestHybridThresholdZeroMatchesDES requires that the hybrid engine
// with an unset popularity threshold reproduces the pure DES engine
// byte for byte — same summary text and same state digest — so turning
// the hybrid machinery on cannot silently perturb existing results.
func TestHybridThresholdZeroMatchesDES(t *testing.T) {
	t.Parallel()
	run := func(engine Engine) (string, uint64) {
		cfg := fluidCmpConfig(30, 11)
		cfg.Engine = engine
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", engine, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run(%s): %v", engine, err)
		}
		return res.Summary(), s.srv.digest()
	}
	dSum, dDig := run(EngineDES)
	hSum, hDig := run(EngineHybrid)
	if dSum != hSum {
		t.Errorf("hybrid(threshold 0) summary differs from DES:\n--- des ---\n%s\n--- hybrid ---\n%s", dSum, hSum)
	}
	if dDig != hDig {
		t.Errorf("hybrid(threshold 0) digest %016x != DES %016x", hDig, dDig)
	}
}

// TestHybridRoutesByPopularity checks the per-movie threshold: a server
// with one popular and one cold movie under hybrid runs exactly one
// fluid backend, visible through the fluid census keys.
func TestHybridRoutesByPopularity(t *testing.T) {
	t.Parallel()
	srv, err := NewServer(ServerConfig{
		Movies: []MovieSetup{
			{Name: "hot", L: 120, B: 30, N: 30, ArrivalRate: 5},
			{Name: "cold", L: 90, B: 18, N: 10, ArrivalRate: 0.05},
		},
		Rates:   vcr.Rates{PB: 1, FF: 3, RW: 3},
		Horizon: 600, Warmup: 100, Seed: 1,
		Engine:         EngineHybrid,
		FluidThreshold: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	res, err := srv.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if _, ok := res.Movies["hot"].StateCounts["fluid"]; !ok {
		t.Errorf("hot movie did not run on the fluid backend: %v", res.Movies["hot"].StateCounts)
	}
	if _, ok := res.Movies["cold"].StateCounts["fluid"]; ok {
		t.Errorf("cold movie ran on the fluid backend: %v", res.Movies["cold"].StateCounts)
	}
	if n := len(srv.fluids); n != 1 {
		t.Errorf("fluid backends = %d, want 1", n)
	}
}

// TestEngineFluidRejectsBlockers checks that the strict fluid engine
// refuses configurations needing DES-only features, while hybrid
// accepts them (falling back to DES per movie).
func TestEngineFluidRejectsBlockers(t *testing.T) {
	t.Parallel()
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"faults", func(c *Config) {
			c.TotalStreams = 40
			c.Faults = faults.Schedule{
				{At: 10, Kind: faults.DiskFail, Disk: 0},
				{At: 20, Kind: faults.DiskRepair, Disk: 0},
			}
		}},
		{"totalStreams", func(c *Config) { c.TotalStreams = 40 }},
		{"maxDedicated", func(c *Config) { c.MaxDedicated = 5 }},
		{"piggyback", func(c *Config) { c.Piggyback = true }},
	}
	for _, m := range mutations {
		cfg := fluidCmpConfig(30, 1)
		cfg.Engine = EngineFluid
		m.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: fluid engine accepted a blocked configuration", m.name)
		}
		cfg.Engine = EngineHybrid
		cfg.FluidThreshold = 0.1
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: hybrid engine rejected a DES-fallback configuration: %v", m.name, err)
		}
	}
}

// TestFluidMatchesDESWithinTolerance is the accuracy gate: on the §4
// validation configurations the fluid backend's pooled hit probability
// must sit within the same ±0.08 absolute band the model-vs-simulation
// experiment (-exp verify) enforces, and the wait statistics must agree.
func TestFluidMatchesDESWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("replication sweep")
	}
	t.Parallel()
	const runs = 4
	for _, B := range []float64{30, 90} {
		des := fluidCmpConfig(B, 1)
		fl := des
		fl.Engine = EngineFluid
		dRep, err := Replicate(des, runs)
		if err != nil {
			t.Fatalf("Replicate(des, B=%v): %v", B, err)
		}
		fRep, err := Replicate(fl, runs)
		if err != nil {
			t.Fatalf("Replicate(fluid, B=%v): %v", B, err)
		}
		dHit, fHit := dRep.HitProbability(), fRep.HitProbability()
		if d := math.Abs(dHit - fHit); d > 0.08 {
			t.Errorf("B=%v: |hit(des) − hit(fluid)| = %.3f (des %.3f, fluid %.3f), want ≤ 0.08",
				B, d, dHit, fHit)
		}
		// The wait distribution is structural (batching geometry), so the
		// backends must agree tightly relative to the restart period.
		period := 120.0 / 30
		if d := math.Abs(dRep.MaxWait - fRep.MaxWait); d > 0.15*period {
			t.Errorf("B=%v: max wait des %.3f vs fluid %.3f", B, dRep.MaxWait, fRep.MaxWait)
		}
		if d := math.Abs(dRep.AvgBatch.Mean() - fRep.AvgBatch.Mean()); d > 0.1 {
			t.Errorf("B=%v: avg batch streams des %.3f vs fluid %.3f",
				B, dRep.AvgBatch.Mean(), fRep.AvgBatch.Mean())
		}
	}
}

// TestFluidScale drives an arrival rate three orders of magnitude past
// DES practicality and checks the level accounting stays unbiased and
// the run stays cheap (it would be ~10⁷ events under DES).
func TestFluidScale(t *testing.T) {
	t.Parallel()
	cfg := fluidCmpConfig(30, 5)
	cfg.Engine = EngineFluid
	cfg.ArrivalRate = 5000 // ~600k concurrent viewers
	cfg.Horizon = 2000
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Pure playback puts residency at wait + L; VCR think and pause time
	// stretch it further (the particle-paced residency EWMA picks that
	// up), so λ·(wait+L) minus the startup ramp is a firm lower bound and
	// a loose factor bounds the stretch. internal/fluid pins the
	// non-interactive case tightly.
	R := 120.0 + (3.0/4)*1.5
	floor := cfg.ArrivalRate * R * (1 - R/(2*cfg.Horizon))
	if res.AvgViewers < 0.95*floor || res.AvgViewers > 2*floor {
		t.Errorf("AvgViewers = %.0f, want within [%.0f, %.0f]", res.AvgViewers, 0.95*floor, 2*floor)
	}
	if res.Hits.N() == 0 {
		t.Errorf("no particle hit trials at scale")
	}
	if res.Arrivals < uint64(0.9*cfg.ArrivalRate*cfg.Horizon) {
		t.Errorf("arrivals %d implausibly low for λ=%v over %v", res.Arrivals, cfg.ArrivalRate, cfg.Horizon)
	}
}

// TestFluidCheckpointResume checks replay-based resume through a fluid
// run: a server rebuilt from the same configuration and resumed from a
// mid-run checkpoint must finish with a byte-identical summary.
func TestFluidCheckpointResume(t *testing.T) {
	t.Parallel()
	cfg := fluidCmpConfig(30, 9)
	cfg.Engine = EngineFluid
	cfg.ArrivalRate = 20
	cfg.Horizon = 600
	cfg.Warmup = 100

	var cps []Checkpoint
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res1, err := s1.RunCheckpointedCtx(context.Background(), 500, func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("RunCheckpointedCtx: %v", err)
	}
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints captured", len(cps))
	}

	cp := cps[len(cps)/2]
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (resume): %v", err)
	}
	res2, err := s2.ResumeCheckpointedCtx(context.Background(), cp, 500, nil)
	if err != nil {
		t.Fatalf("ResumeCheckpointedCtx: %v", err)
	}
	if a, b := res1.Summary(), res2.Summary(); a != b {
		t.Errorf("resumed summary differs:\n--- full ---\n%s\n--- resumed ---\n%s", a, b)
	}
	if a, b := s1.srv.digest(), s2.srv.digest(); a != b {
		t.Errorf("resumed digest %016x != full-run %016x", b, a)
	}
}

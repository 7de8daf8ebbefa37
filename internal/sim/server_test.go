package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"vodalloc/internal/dist"
	"vodalloc/internal/sizing"
	"vodalloc/internal/trace"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

func threeMovieConfig() ServerConfig {
	gam := dist.MustGamma(2, 4)
	exp5 := dist.MustExponential(5)
	think := dist.MustExponential(15)
	return ServerConfig{
		Movies: []MovieSetup{
			{Name: "a", L: 120, B: 60, N: 30, ArrivalRate: 0.5,
				Profile: workload.MixedProfile(gam, think)},
			{Name: "b", L: 90, B: 45, N: 30, ArrivalRate: 0.3,
				Profile: workload.MixedProfile(exp5, think)},
			{Name: "c", L: 60, B: 20, N: 20, ArrivalRate: 0.2,
				Profile: workload.MixedProfile(exp5, think)},
		},
		Rates:   testRates,
		Horizon: 2500,
		Warmup:  300,
		Seed:    5,
	}
}

func TestServerConfigValidate(t *testing.T) {
	if err := threeMovieConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*ServerConfig){
		func(c *ServerConfig) { c.Movies = nil },
		func(c *ServerConfig) { c.Movies[1].Name = c.Movies[0].Name },
		func(c *ServerConfig) { c.Movies[0].L = 0 },
		func(c *ServerConfig) { c.Movies[0].B = -1 },
		func(c *ServerConfig) { c.Movies[0].N = 0 },
		func(c *ServerConfig) { c.Movies[0].ArrivalRate = 0 },
		func(c *ServerConfig) { c.Movies[0].Delta = -1 },
		func(c *ServerConfig) { c.Movies[0].Profile.PFF = 9 },
		func(c *ServerConfig) { c.Horizon = 0 },
		func(c *ServerConfig) { c.Warmup = c.Horizon + 1 },
		func(c *ServerConfig) { c.MaxDedicated = -1 },
		func(c *ServerConfig) { c.Rates = vcr.Rates{} },
		func(c *ServerConfig) { c.Piggyback = true; c.Slew = 1.5 },
	}
	for i, mut := range mutations {
		c := threeMovieConfig()
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestServerRunsThreeMoviesIndependently(t *testing.T) {
	srv, err := NewServer(threeMovieConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Order) != 3 || len(sr.Movies) != 3 {
		t.Fatalf("want 3 movies, got %d", len(sr.Movies))
	}
	for name, m := range sr.Movies {
		if m.Arrivals == 0 || m.Hits.N() == 0 {
			t.Errorf("%s: no traffic (arrivals=%d resumes=%d)", name, m.Arrivals, m.Hits.N())
		}
		if m.Arrivals != m.Departures+m.InSystem {
			t.Errorf("%s: conservation broken", name)
		}
		// Per-movie wait bound w = (L−B)/N.
		var setup MovieSetup
		for _, ms := range threeMovieConfig().Movies {
			if ms.Name == name {
				setup = ms
			}
		}
		w := (setup.L - setup.B) / float64(setup.N)
		if m.MaxWait > w+1e-9 {
			t.Errorf("%s: max wait %.4f exceeds w=%.4f", name, m.MaxWait, w)
		}
	}
	// Shared metrics aggregate all movies.
	if sr.PeakDedicated == 0 || sr.AvgViewers == 0 {
		t.Error("shared metrics empty")
	}
	if sr.TotalResumes() == 0 || sr.PooledHit() <= 0 || sr.PooledHit() >= 1 {
		t.Errorf("pooled hit %g over %d resumes", sr.PooledHit(), sr.TotalResumes())
	}
	// Buffer peak covers all movies' partitions: ΣB up to Σ(B+span),
	// one draining span per movie: 125 + 2 + 1.5 + 1 = 129.5.
	if sr.BufferPeak < 125-1e-6 || sr.BufferPeak > 129.5+1e-6 {
		t.Errorf("buffer peak %.2f outside [125, 129.5]", sr.BufferPeak)
	}
	if !strings.Contains(sr.Summary(), "[b]") {
		t.Error("summary missing movie section")
	}
}

func TestServerMatchesSingleMovieRuns(t *testing.T) {
	// A multi-movie server with ample shared resources should reproduce
	// each movie's solo hit probability (they interact only through the
	// shared dedicated pool, which is unlimited here).
	cfg := threeMovieConfig()
	cfg.Horizon = 4000
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range cfg.Movies {
		solo, err := New(Config{
			L: ms.L, B: ms.B, N: ms.N, Rates: cfg.Rates,
			ArrivalRate: ms.ArrivalRate, Profile: ms.Profile,
			Horizon: cfg.Horizon, Warmup: cfg.Warmup, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solo.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := sr.Movies[ms.Name].HitProbability()
		want := res.HitProbability()
		if diff := got - want; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: server %.4f vs solo %.4f", ms.Name, got, want)
		}
	}
}

func TestServerSharedDedicatedContention(t *testing.T) {
	cfg := threeMovieConfig()
	cfg.MaxDedicated = 5
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sr.PeakDedicated > 5 {
		t.Errorf("shared cap violated: %d", sr.PeakDedicated)
	}
	var blocked uint64
	for _, m := range sr.Movies {
		blocked += m.BlockedOps + m.BlockedResumes
	}
	if blocked == 0 {
		t.Error("starved shared pool should block requests in some movie")
	}
}

func TestServerRunSingleUse(t *testing.T) {
	srv, err := NewServer(threeMovieConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(); !errors.Is(err, ErrBadConfig) {
		t.Error("second Run must fail")
	}
}

// TestServerValidatesExample1Plan is the end-to-end closure of the
// paper's §5 pipeline: feed the optimizer's Example 1 allocation into
// the multi-movie simulator and confirm every movie delivers its wait
// bound and (approximately) its target hit probability on shared
// hardware.
func TestServerValidatesExample1Plan(t *testing.T) {
	if testing.Short() {
		t.Skip("long end-to-end run")
	}
	movies := workload.Example1Movies()
	plan, err := sizing.MinBufferPlan(movies, sizing.DefaultRates, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{
		Rates:   testRates,
		Horizon: 4000,
		Warmup:  400,
		Seed:    13,
	}
	for i, m := range movies {
		cfg.Movies = append(cfg.Movies, MovieSetup{
			Name: m.Name, L: m.Length,
			B: plan.Allocs[i].B, N: plan.Allocs[i].N,
			ArrivalRate: 0.5,
			Profile:     m.Profile,
		})
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range movies {
		res := sr.Movies[m.Name]
		if res.MaxWait > m.Wait+1e-9 {
			t.Errorf("%s: wait %.4f exceeds target %.4f", m.Name, res.MaxWait, m.Wait)
		}
		// The plan sits exactly at the P* boundary; allow simulation
		// noise plus the model's known RW-at-zero underestimate.
		if hit := res.HitProbability(); hit < m.TargetHit-0.05 {
			t.Errorf("%s: hit %.4f far below target %.2f (plan B=%.1f n=%d)",
				m.Name, hit, m.TargetHit, plan.Allocs[i].B, plan.Allocs[i].N)
		}
	}
	// The planned batch streams are what the movies actually consume.
	// The time average includes the cold-start ramp of the first L
	// minutes (≈ n·L/(2·Horizon) below n), so compare within 2%.
	for i := range movies {
		res := sr.Movies[movies[i].Name]
		n := float64(plan.Allocs[i].N)
		if res.AvgBatch < 0.98*n-1.5 || res.AvgBatch > n+1.5 {
			t.Errorf("%s: avg batch streams %.2f far from plan n=%d",
				movies[i].Name, res.AvgBatch, plan.Allocs[i].N)
		}
	}
}

func TestReplicateCombinesRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Horizon = 800
	cfg.Warmup = 100
	rep, err := Replicate(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerRun) != 6 || rep.Runs.N() != 6 {
		t.Fatalf("runs %d", rep.Runs.N())
	}
	// Pooled trials = sum of per-run trials; every run contributed.
	if rep.PooledHits.N() == 0 {
		t.Fatal("no pooled resumes")
	}
	for i, est := range rep.PerRun {
		if est <= 0 || est >= 1 {
			t.Errorf("run %d estimate %g", i, est)
		}
	}
	// Different seeds → the runs differ.
	allSame := true
	for _, est := range rep.PerRun[1:] {
		if est != rep.PerRun[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("replications identical; seeds not varied")
	}
	// The replication CI must be finite and bracket the pooled estimate.
	ci := rep.HitCI95()
	if math.IsInf(ci, 1) || ci <= 0 {
		t.Fatalf("ci %g", ci)
	}
	if math.Abs(rep.Runs.Mean()-rep.HitProbability()) > 3*ci {
		t.Errorf("pooled %g far from replication mean %g ± %g",
			rep.HitProbability(), rep.Runs.Mean(), ci)
	}
	if rep.MaxWait <= 0 {
		t.Error("max wait missing")
	}
	// Determinism: the same call reproduces identical pooled counts.
	rep2, err := Replicate(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PooledHits != rep2.PooledHits {
		t.Error("replicate not deterministic for fixed seed")
	}
}

func TestReplicateValidation(t *testing.T) {
	cfg := baseConfig()
	if _, err := Replicate(cfg, 0); !errors.Is(err, ErrBadConfig) {
		t.Error("zero runs must fail")
	}
	bad := cfg
	bad.L = 0
	if _, err := Replicate(bad, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("invalid config must fail")
	}
	traced := cfg
	traced.Tracer = &trace.Recorder{}
	if _, err := Replicate(traced, 2); !errors.Is(err, ErrBadConfig) {
		t.Error("tracer with replications must fail")
	}
}

func TestReplicateCIShrinksWithRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("replication sweep")
	}
	cfg := baseConfig()
	cfg.Horizon = 800
	cfg.Warmup = 100
	small, err := Replicate(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Replicate(cfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	// With few runs the variance estimate itself is noisy, so compare at
	// a comfortable ratio: 8× the replications should at least halve the
	// interval in expectation (√8 ≈ 2.8); require any shrinkage.
	if big.HitCI95() >= small.HitCI95() {
		t.Errorf("CI did not shrink: %g (48 runs) vs %g (6 runs)",
			big.HitCI95(), small.HitCI95())
	}
	// Pooled sample size scales linearly with runs.
	if big.PooledHits.N() < 7*small.PooledHits.N() {
		t.Errorf("pooled resumes %d vs %d: runs not all counted",
			big.PooledHits.N(), small.PooledHits.N())
	}
}

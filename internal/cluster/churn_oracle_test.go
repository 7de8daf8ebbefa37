package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// TestChurnHitAgainstNodeSims is the churn engine's oracle: on one
// placement, with the controller off and no faults or drift, it compares
// churn's P(hit) — the sized analytic value discounted by
// min(1, AllocN/Live) — with Simulate's per-node simulations across
// utilizations ρ = λ·L̄/ΣMaxStreams (L̄ the popularity-weighted mean
// length). The simulations follow the paper's model, in which P(hit)
// does not depend on λ, so they stay at the sized value; churn's
// contention discount pulls it down as ρ grows. Both columns are pinned,
// so a change that moves churn onto per-node service shows its effect as
// a diff of this table (EXPERIMENTS.md, churn section).
func TestChurnHitAgainstNodeSims(t *testing.T) {
	ctx := context.Background()
	movies, err := workload.ZipfCatalog(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := Demands(ctx, nil, movies, sizing.DefaultRates)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Replicas: 1}
	p, err := PackAllocs(allocs, AutoNodes(3, allocs, opts, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	var streams int
	for _, n := range p.Nodes {
		streams += n.MaxStreams
	}
	var meanLen, sized float64
	for i, m := range movies {
		meanLen += allocs[i].Weight * m.Length
		sized += allocs[i].Weight * allocs[i].Hit
	}
	if streams != 699 || math.Abs(meanLen-93.2) > 0.05 {
		t.Fatalf("placement moved: ΣMaxStreams=%d L̄=%.2f, want 699 and 93.2", streams, meanLen)
	}

	const horizon, warmup = 3000.0, 300.0
	for _, c := range []struct {
		rho, sims, churn float64
		saturated        uint64
	}{
		{0.25, 0.5065, 0.5027, 0},
		{0.50, 0.5058, 0.4633, 0},
		{0.80, 0.5049, 0.4160, 599},
		{1.00, 0.5062, 0.3985, 3056},
		{1.20, 0.5083, 0.3860, 6170},
	} {
		lambda := c.rho * float64(streams) / meanLen
		sr, err := Simulate(ctx, SimConfig{
			Placement: p, Movies: movies, Rates: testRates, TotalRate: lambda,
			Horizon: horizon, Warmup: warmup, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := RunChurn(ctx, ChurnConfig{
			Placement: p, Workload: workload.DynamicWorkload{Movies: movies, BaseRate: lambda},
			Horizon: horizon, Warmup: warmup, Seed: 1, ControllerOff: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(sr.Hit - sized); d > 0.02 {
			t.Errorf("ρ=%.2f: per-node sims P(hit) %.4f is %.4f from the sized %.4f (> 0.02)", c.rho, sr.Hit, d, sized)
		}
		if c.rho == 0.25 && math.Abs(sr.Hit-cr.Hit) > 0.01 {
			t.Errorf("ρ=0.25: churn %.4f and sims %.4f disagree by more than 0.01 with the discount inactive", cr.Hit, sr.Hit)
		}
		got := fmt.Sprintf("%.4f %.4f %d", sr.Hit, cr.Hit, cr.ShedSaturated)
		if want := fmt.Sprintf("%.4f %.4f %d", c.sims, c.churn, c.saturated); got != want {
			t.Errorf("ρ=%.2f: sims, churn, saturated sheds = %s, want %s", c.rho, got, want)
		}
	}
}

package cluster

import (
	"context"
	"testing"

	"vodalloc/internal/workload"
)

// benchCluster is the control-plane benchmarks' cluster: 24 Zipf titles,
// each copy sized by hand (40 streams, 8 buffer-minutes), placed twice
// on 8 uniform nodes.
func benchCluster(b *testing.B) ([]workload.Movie, Placement) {
	b.Helper()
	movies, err := workload.ZipfCatalog(24, 0.8)
	if err != nil {
		b.Fatalf("ZipfCatalog: %v", err)
	}
	allocs := make([]MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = MovieAlloc{Movie: m.Name, N: 40, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	p, err := PackAllocs(allocs, UniformNodes(8, 300, 300), Options{Replicas: 2})
	if err != nil {
		b.Fatalf("PackAllocs: %v", err)
	}
	return movies, p
}

// BenchmarkRouteGray times one gray routing decision on 8 nodes with
// node0 serving 12× slow, after a warm-up that fills the nodes'
// 64-sample windows and the 256-wait deadline window. Each decision is
// released at once, so the load stays flat.
func BenchmarkRouteGray(b *testing.B) {
	movies, p := benchCluster(b)
	slow := func(node, _, _ int) float64 {
		if node == 0 {
			return 12
		}
		return 1
	}
	for _, pol := range []RoutePolicy{PolicyBlind, PolicyHealth, PolicyHedge} {
		b.Run(pol.String(), func(b *testing.B) {
			r, err := NewRouter(p, 1)
			if err != nil {
				b.Fatalf("NewRouter: %v", err)
			}
			if err := r.SetGrayPolicy(pol, HealthConfig{}); err != nil {
				b.Fatalf("SetGrayPolicy: %v", err)
			}
			now := 0.0
			route := func(i int) {
				m := movies[i%len(movies)].Name
				now += 0.01
				d, err := r.RouteGray(m, now, slow)
				if err != nil {
					b.Fatalf("RouteGray: %v", err)
				}
				r.ReleaseDisk(m, d.Node, d.Disk)
			}
			for i := 0; i < 4096; i++ {
				route(i)
			}
			// node0 may be cycling through quarantine, whose probation
			// entry empties its window; every other window must be full.
			for i := 1; i < len(r.health); i++ {
				if nh := &r.health[i]; nh.win.n != len(nh.win.ring) {
					b.Fatalf("warm-up left node %d's window at %d of %d", i, nh.win.n, len(nh.win.ring))
				}
			}
			if r.waits.n != len(r.waits.ring) {
				b.Fatalf("warm-up left the deadline window at %d of %d", r.waits.n, len(r.waits.ring))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				route(i)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
		})
	}
}

// BenchmarkChurnHedge runs the hedged gray-failure churn scenario at
// smoke size — the benchmark cluster on a 600-minute horizon, node0
// 12× slow over 30–70% of it and node2 browned out to 0.4 over 40–80%,
// hedged routing with the controller evacuating quarantined nodes — and
// reports simulated arrivals per wall-clock second.
func BenchmarkChurnHedge(b *testing.B) {
	movies, p := benchCluster(b)
	const horizon = 600.0
	cfg := ChurnConfig{
		Placement: p,
		Workload:  workload.DynamicWorkload{Movies: movies, BaseRate: 12},
		Horizon:   horizon,
		Warmup:    100,
		Seed:      1,
		Window:    60,
		Controller: ControllerConfig{
			Interval: 10, Cooldown: 15, BudgetBytes: 60e9, EvacuateDwell: 10,
		},
		Policy: PolicyHedge,
		Gray: []GrayFault{
			{Kind: GraySlow, Node: "node0", At: 0.3 * horizon, Until: 0.7 * horizon, Factor: 12},
			{Kind: GrayBrownout, Node: "node2", At: 0.4 * horizon, Until: 0.8 * horizon, Factor: 0.4},
		},
	}
	b.ReportAllocs()
	arrivals := 0
	for i := 0; i < b.N; i++ {
		res, err := RunChurn(context.Background(), cfg)
		if err != nil {
			b.Fatalf("RunChurn: %v", err)
		}
		if res.Gray.Hedges == 0 {
			b.Fatalf("scenario never hedged: %+v", res.Gray)
		}
		arrivals += int(res.Arrivals)
	}
	b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
}

package sim

import (
	"testing"
	"time"

	"vodalloc/internal/workload"
)

// nodeServerConfig is one simulated server of 40 Zipf titles (θ = 0.8)
// at 200 viewers/min, each with B = l/4 and n = 20, on the hybrid
// engine with a fluid threshold of 10/min: the four hottest titles run
// fluid and the other 36, with 62% of the arrivals, run on the DES. The
// 300-minute horizon is the node_des workload's smoke size.
func nodeServerConfig(tb testing.TB) ServerConfig {
	cat, err := workload.ZipfCatalog(40, 0.8)
	if err != nil {
		tb.Fatal(err)
	}
	rates, err := workload.SplitRate(200, cat)
	if err != nil {
		tb.Fatal(err)
	}
	movies := make([]MovieSetup, len(cat))
	for i, m := range cat {
		movies[i] = MovieSetup{
			Name: m.Name, L: m.Length, B: m.Length / 4, N: 20,
			ArrivalRate: rates[i], Profile: m.Profile,
		}
	}
	return ServerConfig{
		Movies: movies, Rates: testRates,
		Horizon: 300, Warmup: 100, Seed: 1,
		Engine: EngineHybrid, FluidThreshold: 10,
	}
}

// BenchmarkServerNode runs that server once per iteration and reports
// wall time per arriving viewer. Its elastic disk array grows to
// hundreds of disks, so both the disk pick and the covering-partition
// lookup show here.
func BenchmarkServerNode(b *testing.B) {
	cfg := nodeServerConfig(b)
	b.ReportAllocs()
	var viewers uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		s, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t := time.Now()
		res, err := s.Run()
		wall += time.Since(t)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res.Movies {
			viewers += m.Arrivals
		}
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(viewers), "ns/viewer")
}

// TestServerNodeAllocsBelowViewers holds the node server to fewer heap
// allocations per run than viewers arrive. Events are typed, so
// scheduling one allocates nothing; a viewer's dedicated stream and
// disk lease are values, and viewers come from slab blocks. What is
// left grows with restarts (partitions) and with the tables, not with
// viewers. Scheduling closures for viewer events would cost about 16
// allocations per viewer here.
func TestServerNodeAllocsBelowViewers(t *testing.T) {
	cfg := nodeServerConfig(t)
	var viewers uint64
	allocs := testing.AllocsPerRun(1, func() {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		viewers = 0
		for _, m := range res.Movies {
			viewers += m.Arrivals
		}
	})
	if allocs >= float64(viewers) {
		t.Errorf("a run allocates %.0f objects for %d arriving viewers; want fewer allocations than viewers", allocs, viewers)
	}
}

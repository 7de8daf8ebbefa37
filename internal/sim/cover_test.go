package sim

import (
	"fmt"
	"testing"

	"vodalloc/internal/faults"
)

// scanCovering is the linear scan coveringPartition ran before its
// binary search: the first partition in slice order whose window covers
// pos. It is the oracle the search must match.
func scanCovering(mv *movieState, now, pos float64) *activePart {
	for _, ap := range mv.parts {
		if !ap.gone && ap.part.Covers(now, pos) {
			return ap
		}
	}
	return nil
}

func partID(ap *activePart) int64 {
	if ap == nil {
		return -1
	}
	return int64(ap.id)
}

// TestCoveringMatchesScan holds the covering-partition search to the
// linear scan on every lookup of seeded runs (resumes, piggyback
// merges, unparks, degraded fallbacks and retries), under disk failures
// and buffer loss, with B < L and B = L (touching windows). At each
// lookup it also probes every partition's exact window bounds and
// requires the partitions to stay in Start order.
func TestCoveringMatchesScan(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		// the run at B < L must exercise these paths (at B = L every
		// resume is a hit, so nothing parks or merges)
		parks, merges, faulted, retries bool
	}{
		{"parked", func() Config {
			c := baseConfig()
			c.Horizon, c.MaxDedicated, c.Piggyback = 1500, 2, true
			return c
		}, true, true, false, false},
		{"faulted", func() Config {
			c := faultConfig()
			c.Piggyback = true
			sched, err := faults.Random(7, c.Horizon, 200, 60, 6)
			if err != nil {
				t.Fatal(err)
			}
			for at := 250.0; at < c.Horizon; at += 150 {
				sched = append(sched, faults.Event{At: at, Kind: faults.BufferLoss})
			}
			c.Faults = sched.Sorted()
			return c
		}, false, true, true, true},
	}
	for _, tc := range cases {
		for _, touching := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/B=L:%t/seed%d", tc.name, touching, seed)
				t.Run(name, func(t *testing.T) {
					c := tc.cfg()
					c.Seed = seed
					if touching {
						c.B = c.L
					}
					sim, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					srv := sim.srv
					lookups, bounds := 0, 0
					check := func(mv *movieState, now, pos float64, got *activePart) {
						if want := scanCovering(mv, now, pos); got != want {
							t.Fatalf("t=%v pos=%v: search found partition %d, scan %d (-1: none)",
								now, pos, partID(got), partID(want))
						}
					}
					srv.coverProbe = func(mv *movieState, now, pos float64, got *activePart) {
						lookups++
						check(mv, now, pos, got)
						for i, ap := range mv.parts {
							if i > 0 && ap.part.Start < mv.parts[i-1].part.Start {
								t.Fatalf("t=%v: partition %d starts at %v, before its predecessor's %v",
									now, i, ap.part.Start, mv.parts[i-1].part.Start)
							}
							if lo, hi, ok := ap.part.Window(now); ok {
								check(mv, now, lo, mv.covering(now, lo))
								check(mv, now, hi, mv.covering(now, hi))
								bounds += 2
							}
						}
					}
					if _, err := sim.Run(); err != nil {
						t.Fatal(err)
					}
					mv := srv.movies[0]
					for _, need := range []struct {
						what string
						want bool
						n    uint64
					}{
						{"parks", tc.parks, mv.parkEvents},
						{"merges", tc.merges, mv.merges},
						{"disk failures", tc.faulted, srv.diskFailures},
						{"lost partitions", tc.faulted, srv.partitionsLost},
						{"degraded retries", tc.retries, mv.retries},
					} {
						if need.want && !touching && need.n == 0 {
							t.Errorf("the run had no %s", need.what)
						}
					}
					if lookups < 100 {
						t.Errorf("only %d lookups", lookups)
					}
					t.Logf("%d lookups, %d window bounds probed", lookups, bounds)
				})
			}
		}
	}
}

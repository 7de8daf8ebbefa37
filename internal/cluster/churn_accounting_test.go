package cluster

import (
	"context"
	"fmt"
	"testing"

	"vodalloc/internal/sim"
)

// routerBooks checks the router's stream accounting: every node's live
// count equals the sum of its per-(movie, node) replica counts and,
// where disks are armed, the sum of its per-disk counts; no counter is
// negative. The release paths clamp at zero, so a double release would
// otherwise pass unnoticed.
func routerBooks(r *Router) error {
	byNode := make([]int, len(r.ids))
	for m, movie := range r.names {
		for i, node := range r.ids {
			n := *r.viewers(m, i)
			if n < 0 {
				return fmt.Errorf("live viewers of %q on %q = %d", movie, node, n)
			}
			byNode[i] += n
		}
	}
	for i, id := range r.ids {
		if r.live[i] < 0 || r.live[i] != byNode[i] {
			return fmt.Errorf("node %s: live %d, replica sum %d", id, r.live[i], byNode[i])
		}
		if r.diskLive == nil {
			continue
		}
		sum := 0
		for d, l := range r.diskLive[i] {
			if l < 0 {
				return fmt.Errorf("node %s disk %d: live %d", id, d, l)
			}
			sum += l
		}
		if sum != r.live[i] {
			return fmt.Errorf("node %s: live %d, disk sum %d", id, r.live[i], sum)
		}
	}
	return nil
}

// TestChurnRouterAccounting drives the churn scenarios through the
// engine with a checkpoint at every event and checks the router's books
// at each boundary: flash crowds with the placement live and frozen,
// gray faults under blind and hedged routing, disk-granular health, and
// evacuation.
func TestChurnRouterAccounting(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  ChurnConfig
	}{
		{"flash", flashScenario(t, false)},
		{"flash-frozen", flashScenario(t, true)},
		{"gray-blind", grayScenario(t, PolicyBlind)},
		{"gray-hedge", grayScenario(t, PolicyHedge)},
		{"disk-hedge", diskHedgeScenario(t)},
		{"evacuate", evacuateScenario(t)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			r, err := newChurnRun(sc.cfg)
			if err != nil {
				t.Fatalf("newChurnRun: %v", err)
			}
			boundaries := 0
			err = r.run(context.Background(), 1, func(cp sim.Checkpoint) error {
				boundaries++
				if err := routerBooks(r.router); err != nil {
					return fmt.Errorf("t=%v after %d events: %w", cp.Now, cp.Fired, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if boundaries == 0 {
				t.Fatal("no event boundaries checked")
			}
			if sc.cfg.grayActive() && r.router.diskLive == nil {
				t.Fatal("gray run without per-disk accounting")
			}
		})
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// grayPlacement is a 3-node placement with every movie replicated
// twice, so the quarantine guard (never strand a movie) has room to
// let quarantines through.
func grayPlacement(t *testing.T) Placement {
	t.Helper()
	allocs := []MovieAlloc{
		{Movie: "hot", N: 12, B: 6, Weight: 0.7},
		{Movie: "cold", N: 8, B: 4, Weight: 0.3},
	}
	p, err := PackAllocs(allocs, UniformNodes(3, 30, 20), Options{Replicas: 2})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return p
}

// grayRouter builds a router over a 3-node placement with gray routing
// armed under the given policy.
func grayRouter(t *testing.T, pol RoutePolicy) (*Router, Placement) {
	t.Helper()
	p := grayPlacement(t)
	r, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.SetGrayPolicy(pol, HealthConfig{}); err != nil {
		t.Fatalf("SetGrayPolicy: %v", err)
	}
	return r, p
}

// driveGray routes n requests of the movie at time now, with the slow
// set mapping node ID → wait multiplier (everyone else waits 1.0).
func driveGray(t *testing.T, r *Router, movie string, n int, now float64, slow map[string]float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		gd, err := r.RouteGray(movie, now, func(node, disk, liveAfter int) float64 {
			if m, ok := slow[r.ids[node]]; ok {
				return m
			}
			return 1
		})
		if err != nil {
			t.Fatalf("RouteGray %d: %v", i, err)
		}
		r.Release(movie, gd.Node)
	}
}

// TestRouterQuarantineLifecycle walks one node through the full state
// machine: consistently slow service suspects then quarantines it,
// after the dwell it reaches probation, and good probes restore it.
func TestRouterQuarantineLifecycle(t *testing.T) {
	r, p := grayRouter(t, PolicyHealth)
	reps := p.Replicas("hot")
	slowNode := reps[0].Node

	driveGray(t, r, "hot", 400, 0, map[string]float64{slowNode: 10})
	st, err := r.HealthState(slowNode)
	if err != nil {
		t.Fatalf("HealthState: %v", err)
	}
	if st != Quarantined {
		t.Fatalf("after sustained 10x latency state = %v, want quarantined\n%+v", st, r.HealthSnapshot())
	}
	gs := r.GrayStats()
	if gs.Suspects == 0 || gs.Quarantines == 0 {
		t.Fatalf("transitions not counted: %+v", gs)
	}

	// While quarantined the node takes no traffic at all.
	for i := 0; i < 100; i++ {
		gd, err := r.RouteGray("hot", 5, func(int, int, int) float64 { return 1 })
		if err != nil {
			t.Fatalf("RouteGray: %v", err)
		}
		if gd.Node == slowNode {
			t.Fatalf("request %d routed to quarantined node %s", i, slowNode)
		}
		r.Release("hot", gd.Node)
	}

	// Past the dwell it goes on probation; now healthy again, the probes
	// restore it.
	driveGray(t, r, "hot", 400, 2*probationAfter, nil)
	if st, _ = r.HealthState(slowNode); st != Healthy {
		t.Fatalf("after recovery state = %v, want healthy\n%+v", st, r.HealthSnapshot())
	}
	gs = r.GrayStats()
	if gs.Probes == 0 || gs.Restores == 0 {
		t.Fatalf("probe recovery not counted: %+v", gs)
	}
}

// TestRouterBlindNeverQuarantines pins the baseline posture: under
// PolicyBlind the trackers observe but the state machine never moves.
func TestRouterBlindNeverQuarantines(t *testing.T) {
	r, p := grayRouter(t, PolicyBlind)
	slowNode := p.Replicas("hot")[0].Node
	driveGray(t, r, "hot", 400, 0, map[string]float64{slowNode: 50})
	for _, nh := range r.HealthSnapshot() {
		if nh.State != "healthy" {
			t.Fatalf("blind policy moved %s to %s", nh.Node, nh.State)
		}
	}
	if gs := r.GrayStats(); gs.Suspects != 0 || gs.Quarantines != 0 || gs.Hedges != 0 {
		t.Fatalf("blind policy acted: %+v", gs)
	}
}

// TestRouterHedgeFirstWins pins hedged dispatch: once the deadline is
// armed, a request whose primary would blow it re-issues to the backup,
// the faster side wins, and exactly one side is canceled per hedge.
func TestRouterHedgeFirstWins(t *testing.T) {
	r, p := grayRouter(t, PolicyHedge)
	reps := p.Replicas("hot")
	slowNode := reps[0].Node

	// Warm the deadline ring with nominal waits, then make one node
	// pathologically slow (but not long enough to quarantine).
	driveGray(t, r, "hot", 64, 0, nil)
	wins, hedged := 0, 0
	for i := 0; i < 40; i++ {
		gd, err := r.RouteGray("hot", 1, func(node, disk, liveAfter int) float64 {
			if r.ids[node] == slowNode {
				return 100
			}
			return 1
		})
		if err != nil {
			t.Fatalf("RouteGray: %v", err)
		}
		if gd.Hedged {
			hedged++
			if gd.Node == slowNode {
				t.Fatalf("hedge %d resolved to the slow primary with wait %v", i, gd.Wait)
			}
			if !gd.HedgeWin {
				t.Fatalf("hedge %d: backup at ~deadline+1 should beat a 100x primary (wait %v)", i, gd.Wait)
			}
			if gd.Wait >= 100 {
				t.Fatalf("hedge %d: experienced wait %v not improved", i, gd.Wait)
			}
		}
		if gd.HedgeWin {
			wins++
		}
		r.Release("hot", gd.Node)
	}
	if hedged == 0 {
		t.Fatal("no request hedged despite a 100x-slow replica")
	}
	gs := r.GrayStats()
	if gs.Hedges != gs.HedgeCancels {
		t.Fatalf("every hedge must cancel exactly one side: %+v", gs)
	}
	if uint64(wins) != gs.HedgeWins {
		t.Fatalf("observed %d wins, counter says %d", wins, gs.HedgeWins)
	}

	// Hedge accounting must leave no orphaned in-flight load.
	live, _ := r.Load()
	if live != 0 {
		t.Fatalf("after releasing every winner, live load = %d, want 0", live)
	}
}

// TestRouterQuarantineGuard pins the availability guard: the last
// routable replica of a movie is never quarantined, no matter how slow.
func TestRouterQuarantineGuard(t *testing.T) {
	r, p := grayRouter(t, PolicyHealth)
	reps := p.Replicas("hot")
	// Take the other replica's node down: reps[0] is now the only
	// routable host of "hot".
	if err := r.SetNodeDown(reps[1].Node, true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
	}
	driveGray(t, r, "hot", 400, 0, map[string]float64{reps[0].Node: 50})
	if st, _ := r.HealthState(reps[0].Node); st == Quarantined {
		t.Fatalf("quarantined the last routable replica of hot\n%+v", r.HealthSnapshot())
	}
	// Traffic still flows.
	if _, err := r.RouteGray("hot", 1, func(int, int, int) float64 { return 50 }); err != nil {
		t.Fatalf("RouteGray on the guarded node: %v", err)
	}
}

// TestRouterQuarantineExcludedUnderMutation is the satellite property
// test: Route and RouteLoad never select a quarantined replica, even
// while other goroutines add and remove replicas concurrently (run
// with -race). The quarantined node is pinned via the operator
// override so the property is exact, not probabilistic.
func TestRouterQuarantineExcludedUnderMutation(t *testing.T) {
	allocs := []MovieAlloc{{Movie: "hot", N: 12, B: 6, Weight: 1}}
	p, err := PackAllocs(allocs, UniformNodes(4, 40, 40), Options{Replicas: 3})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	r, err := NewRouter(p, 99)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.SetGrayPolicy(PolicyHealth, HealthConfig{}); err != nil {
		t.Fatalf("SetGrayPolicy: %v", err)
	}
	reps := p.Replicas("hot")
	quarantined := reps[1].Node // never the primary: RemoveReplica protects it anyway
	if err := r.SetHealthState(quarantined, Quarantined); err != nil {
		t.Fatalf("SetHealthState: %v", err)
	}
	// The spare node not hosting "hot" — the mutator flips its replica.
	spare := ""
	hosts := map[string]bool{}
	for _, a := range reps {
		hosts[a.Node] = true
	}
	for _, n := range p.Nodes {
		if !hosts[n.ID] {
			spare = n.ID
		}
	}
	if spare == "" {
		t.Fatal("no spare node")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // mutator: churns the spare replica and down-flaps a host
		defer wg.Done()
		on := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if on {
				_ = r.RemoveReplica("hot", spare)
			} else {
				_ = r.AddReplica("hot", spare, 6)
			}
			on = !on
			if i%7 == 0 {
				_ = r.SetNodeDown(reps[2].Node, i%14 == 0)
			}
		}
	}()
	var routed [2][]string
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if d, err := r.RouteLoad("hot"); err == nil {
					routed[g] = append(routed[g], d.Node)
					r.Release("hot", d.Node)
				}
			}
		}()
	}
	close(stop)
	wg.Wait()
	for g := range routed {
		for _, n := range routed[g] {
			if n == quarantined {
				t.Fatalf("goroutine %d: routed to quarantined node %s", g, quarantined)
			}
		}
	}
	if st, _ := r.HealthState(quarantined); st != Quarantined {
		t.Fatalf("quarantine state moved to %v without observations", st)
	}
}

// TestRouterGrayDeterminism pins replay: two routers driven through an
// identical RouteGray sequence — including quarantine transitions and
// hedges — make identical decisions and digest identically.
func TestRouterGrayDeterminism(t *testing.T) {
	run := func() (*Router, []string) {
		p := grayPlacement(t)
		r, err := NewRouter(p, 42)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := r.SetGrayPolicy(PolicyHedge, HealthConfig{}); err != nil {
			t.Fatalf("SetGrayPolicy: %v", err)
		}
		slow := p.Replicas("hot")[0].Node
		var nodes []string
		for i := 0; i < 600; i++ {
			now := float64(i) / 10
			mul := 1.0
			if i > 100 && i < 400 {
				mul = 12
			}
			gd, err := r.RouteGray("hot", now, func(node, disk, liveAfter int) float64 {
				w := 1 + float64(liveAfter)*0.01
				if r.ids[node] == slow {
					w *= mul
				}
				return w
			})
			if err != nil {
				t.Fatalf("RouteGray %d: %v", i, err)
			}
			nodes = append(nodes, fmt.Sprintf("%s:%t:%t:%g", gd.Node, gd.Probe, gd.Hedged, gd.Wait))
			r.Release("hot", gd.Node)
		}
		return r, nodes
	}
	r1, n1 := run()
	r2, n2 := run()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, n1[i], n2[i])
		}
	}
	if r1.GrayStats() != r2.GrayStats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.GrayStats(), r2.GrayStats())
	}
	d1, d2 := grayDigestOf(r1), grayDigestOf(r2)
	if d1 != d2 {
		t.Fatalf("digests diverged: %016x vs %016x", d1, d2)
	}
}

func grayDigestOf(r *Router) uint64 {
	var acc uint64 = 1469598103934665603
	r.digest(func(v uint64) {
		acc ^= v
		acc *= 1099511628211
	})
	return acc
}

// TestRouterSetHealthStateErrors pins the override's typed errors.
func TestRouterSetHealthStateErrors(t *testing.T) {
	r, _ := grayRouter(t, PolicyHealth)
	if err := r.SetHealthState("nowhere", Quarantined); !errors.Is(err, ErrBadCluster) {
		t.Errorf("unknown node error = %v, want ErrBadCluster", err)
	}
	if err := r.SetHealthState("node0", HealthState(9)); !errors.Is(err, ErrBadCluster) {
		t.Errorf("bad state error = %v, want ErrBadCluster", err)
	}
	if _, err := r.HealthState("nowhere"); !errors.Is(err, ErrBadCluster) {
		t.Errorf("HealthState unknown node error = %v, want ErrBadCluster", err)
	}
}

// TestRouteGrayRefusesBadWait pins the sorted windows' guard: a NaN or
// negative wait from waitFn — on the primary, the hedge backup, or a
// probation probe — is refused with ErrBadCluster, its reservation is
// released, and no tracker or window sees the value.
func TestRouteGrayRefusesBadWait(t *testing.T) {
	cases := []struct {
		name string
		// setup readies the router; bad then answers the call that must
		// be refused (the first after setup unless it counts calls).
		setup func(t *testing.T, r *Router, p Placement)
		bad   func() func(node, disk, liveAfter int) float64
	}{
		{"primary NaN", nil, func() func(int, int, int) float64 {
			return func(int, int, int) float64 { return math.NaN() }
		}},
		{"primary negative", nil, func() func(int, int, int) float64 {
			return func(int, int, int) float64 { return -1 }
		}},
		{"backup NaN", nil, func() func(int, int, int) float64 {
			calls := 0
			return func(int, int, int) float64 {
				calls++
				if calls == 1 {
					return 100 // blows the deadline: the router hedges
				}
				return math.NaN()
			}
		}},
		{"probe NaN", func(t *testing.T, r *Router, p Placement) {
			if err := r.SetHealthState(p.Replicas("hot")[0].Node, Probation); err != nil {
				t.Fatal(err)
			}
			driveGray(t, r, "hot", probeEvery-1, 0, nil) // the next eligible request probes
		}, func() func(int, int, int) float64 {
			return func(int, int, int) float64 { return math.NaN() }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, p := grayRouter(t, PolicyHedge)
			driveGray(t, r, "hot", 64, 0, nil) // arm the hedge deadline
			if tc.setup != nil {
				tc.setup(t, r, p)
			}
			health, waits := r.HealthSnapshot(), inArrivalOrder(&r.waits)
			live, _ := r.Load()
			stats, gray := r.Stats(), r.GrayStats()

			_, err := r.RouteGray("hot", 0, tc.bad())
			if !errors.Is(err, ErrBadCluster) {
				t.Fatalf("RouteGray error = %v, want ErrBadCluster", err)
			}
			if got := r.HealthSnapshot(); !reflect.DeepEqual(got, health) {
				t.Errorf("trackers moved:\n%+v\nwant\n%+v", got, health)
			}
			if got := inArrivalOrder(&r.waits); !slices.Equal(got, waits) {
				t.Errorf("deadline window moved: %v, want %v", got, waits)
			}
			if got, _ := r.Load(); got != live {
				t.Errorf("live load %d after refusal, want %d", got, live)
			}
			if got := r.Stats(); got != stats {
				t.Errorf("router stats %+v after refusal, want %+v", got, stats)
			}
			if got := r.GrayStats(); got.Hedges != gray.Hedges || got.Probes != gray.Probes {
				t.Errorf("gray stats %+v after refusal, want hedges/probes of %+v", got, gray)
			}
		})
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"vodalloc/internal/workload"
)

// driveController runs the controller standalone for `ticks` intervals
// against a constant per-movie arrival rate (deterministic integer
// arrivals per tick), completing migrations at their Done times, and
// returns the tick index of the last move (-1 when it never moved). It
// fails the test if the byte budget is ever exceeded.
func driveController(t *testing.T, ctrl *Controller, rates []float64, ticks int, budget float64) int {
	t.Helper()
	interval := ctrl.cfg.Interval
	var pending []Migration
	lastMove := -1
	prevMoves := 0
	for k := 1; k <= ticks; k++ {
		now := float64(k) * interval
		// Land migrations due by this tick, in completion order.
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].Done < pending[b].Done })
		for len(pending) > 0 && pending[0].Done <= now {
			if err := ctrl.Complete(pending[0]); err != nil {
				t.Fatalf("Complete: %v", err)
			}
			pending = pending[1:]
		}
		for i, r := range rates {
			for a := 0; a < int(math.Round(r*interval)); a++ {
				ctrl.ObserveArrival(i)
			}
		}
		started := ctrl.Tick(now)
		pending = append(pending, started...)
		s := ctrl.Stats()
		if budget > 0 && s.SpentBytes > budget {
			t.Fatalf("tick %d: spent %.0f bytes exceeds budget %.0f", k, s.SpentBytes, budget)
		}
		if moves := s.MigrationsStarted + s.ReplicaDrops; moves != prevMoves {
			prevMoves = moves
			lastMove = k
		}
	}
	return lastMove
}

// TestControllerQuickBudgetAndFixedPoint is the satellite property:
// over randomized catalogs, rates and budgets, the controller (a) never
// spends a migration byte past the configured budget, and (b) reaches a
// fixed point on a static workload — after convergence there are zero
// further moves.
func TestControllerQuickBudgetAndFixedPoint(t *testing.T) {
	const ticks, tail = 120, 40
	prop := func(seed int64, budgetMB uint16, thetaTenths, rateCentis uint8) bool {
		theta := float64(thetaTenths%12) / 10
		totalRate := 0.1 + float64(rateCentis)/100 // 0.1 .. 2.65 arrivals/min
		budget := float64(budgetMB) * 1e6          // 0 .. ~65 GB (0 = unlimited)
		n := 3 + int(uint64(seed)%4)

		movies, err := workload.ZipfCatalog(n, theta)
		if err != nil {
			t.Logf("ZipfCatalog: %v", err)
			return false
		}
		allocs := make([]MovieAlloc, n)
		for i, m := range movies {
			allocs[i] = MovieAlloc{Movie: m.Name, N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
		}
		p, err := PackAllocs(allocs, UniformNodes(4, 40, 40), Options{})
		if err != nil {
			t.Logf("PackAllocs: %v", err)
			return false
		}
		router, err := NewRouter(p, seed)
		if err != nil {
			t.Logf("NewRouter: %v", err)
			return false
		}
		ctrl, err := NewController(ControllerConfig{
			Interval:    10,
			BudgetBytes: budget,
			Cooldown:    20,
		}, p, movies, router)
		if err != nil {
			t.Logf("NewController: %v", err)
			return false
		}

		rates := make([]float64, n)
		var wsum float64
		for _, m := range movies {
			wsum += m.Popularity
		}
		for i, m := range movies {
			rates[i] = totalRate * m.Popularity / wsum
		}

		lastMove := driveController(t, ctrl, rates, ticks, budget)
		if lastMove > ticks-tail {
			t.Logf("seed=%d budget=%.0f theta=%.1f rate=%.2f: move at tick %d of %d — no fixed point (stats %+v)",
				seed, budget, theta, totalRate, lastMove, ticks, ctrl.Stats())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerHealthPlacementQuick is the satellite property test for
// the health-aware control plane, run with -race: over randomized
// health timelines (nodes flipped Healthy/Suspect/Quarantined between
// ticks via the operator override) and with a goroutine concurrently
// churning a replica on the router, the controller (a) never starts a
// migration INTO a node that is not Healthy, (b) reads its copy FROM a
// Quarantined replica only when every other up host of the movie is
// also Quarantined, and (c) never evacuates a movie's last replica.
// Health states only change between ticks, so the post-Tick checks are
// exact, not racy; the concurrent mutator exercises the router's
// locking on a node the controller is barred from (pinned Suspect).
func TestControllerHealthPlacementQuick(t *testing.T) {
	const ticks = 40
	evacTotal := 0
	prop := func(seed int64, flipSalt uint16) bool {
		movies, err := workload.ZipfCatalog(3, 0.8)
		if err != nil {
			t.Logf("ZipfCatalog: %v", err)
			return false
		}
		allocs := make([]MovieAlloc, len(movies))
		for i, m := range movies {
			allocs[i] = MovieAlloc{Movie: m.Name, N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
		}
		p, err := PackAllocs(allocs, UniformNodes(6, 60, 60), Options{Replicas: 2})
		if err != nil {
			t.Logf("PackAllocs: %v", err)
			return false
		}
		router, err := NewRouter(p, seed)
		if err != nil {
			t.Logf("NewRouter: %v", err)
			return false
		}
		if err := router.SetGrayPolicy(PolicyHealth, HealthConfig{}); err != nil {
			t.Logf("SetGrayPolicy: %v", err)
			return false
		}
		ctrl, err := NewController(ControllerConfig{
			Interval:      10,
			Cooldown:      10,
			EvacuateDwell: 5, // < probationAfter, and < one tick past the flip
		}, p, movies, router)
		if err != nil {
			t.Logf("NewController: %v", err)
			return false
		}
		// The spare: a node with no replica of movies[0]; pinned Suspect so
		// the controller never picks it as a destination, which makes it
		// safe for the concurrent mutator to own outright.
		spare := ""
		hosts := map[string]bool{}
		for _, a := range p.Replicas(movies[0].Name) {
			hosts[a.Node] = true
		}
		for _, n := range p.Nodes {
			if !hosts[n.ID] {
				spare = n.ID
				break
			}
		}
		if spare == "" {
			t.Log("no spare node")
			return false
		}
		if err := router.SetHealthState(spare, Suspect); err != nil {
			t.Logf("SetHealthState: %v", err)
			return false
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // mutator: churns movies[0]'s replica on the spare
			defer wg.Done()
			on := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				if on {
					_ = router.RemoveReplica(movies[0].Name, spare)
				} else {
					_ = router.AddReplica(movies[0].Name, spare, 6)
				}
				on = !on
			}
		}()
		defer func() { close(stop); wg.Wait() }()

		rng := rand.New(rand.NewSource(seed ^ int64(flipSalt)))
		states := []HealthState{Healthy, Healthy, Suspect, Quarantined, Quarantined}
		checkNoStrand := func(when string) bool {
			router.mu.Lock()
			defer router.mu.Unlock()
			for i, m := range movies {
				if _, up := ctrl.replicasLocked(i); up < 1 {
					t.Logf("seed=%d: movie %s stranded %s", seed, m.Name, when)
					return false
				}
			}
			return true
		}
		var pending []Migration
		for k := 1; k <= ticks; k++ {
			now := float64(k) * 10
			// Randomized health timeline: flip up to 2 nodes, never the spare.
			for j := 0; j < rng.Intn(3); j++ {
				n := p.Nodes[rng.Intn(len(p.Nodes))].ID
				if n == spare {
					continue
				}
				if err := router.SetHealthState(n, states[rng.Intn(len(states))]); err != nil {
					t.Logf("SetHealthState: %v", err)
					return false
				}
			}
			sort.SliceStable(pending, func(a, b int) bool { return pending[a].Done < pending[b].Done })
			for len(pending) > 0 && pending[0].Done <= now {
				m := pending[0]
				pending = pending[1:]
				if err := ctrl.Complete(m); err != nil {
					t.Logf("seed=%d: Complete(%+v): %v", seed, m, err)
					return false
				}
				if m.Drain != "" && !checkNoStrand("after draining "+m.Drain) {
					return false
				}
			}
			for i := range movies {
				for a := 0; a < 2; a++ {
					ctrl.ObserveArrival(i)
				}
			}
			started := ctrl.Tick(now)
			router.mu.Lock()
			ok := true
			for _, m := range started {
				if st, _, _ := router.healthLocked(router.node[m.To]); st != Healthy {
					t.Logf("seed=%d tick %d: migration into %s in state %v: %+v", seed, k, m.To, st, m)
					ok = false
					break
				}
				if st, _, _ := router.healthLocked(router.node[m.From]); st == Quarantined {
					// The spare's copy flips under the mutator between the
					// tick and this check, so it is not judged here.
					for _, rep := range router.replicas[router.movie[m.Movie]] {
						h := router.ids[rep.node]
						if h == m.From || h == spare || router.down[rep.node] {
							continue
						}
						if hs, _, _ := router.healthLocked(rep.node); hs != Quarantined {
							t.Logf("seed=%d tick %d: copy of %s read from quarantined %s while %s is %v",
								seed, k, m.Movie, m.From, h, hs)
							ok = false
							break
						}
					}
				}
				if m.Drain != "" {
					evacTotal++
				}
			}
			router.mu.Unlock()
			if !ok {
				return false
			}
			pending = append(pending, started...)
			if !checkNoStrand("after tick") {
				return false
			}
		}
		s := ctrl.Stats()
		if s.EvacuationsCompleted+s.EvacuationsBlocked > s.Evacuations {
			t.Logf("seed=%d: evacuation ledger inconsistent: %+v", seed, s)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if evacTotal == 0 {
		t.Fatal("no evacuation ever started across all runs — the property is vacuous")
	}
}

// TestControllerAddsUnderPressure pins the basic reaction: a hot movie
// whose load exceeds the per-replica target gains replicas, and the
// migration respects destination capacity.
func TestControllerAddsUnderPressure(t *testing.T) {
	movies, allocs := churnCatalog(t, 4)
	p, err := PackAllocs(allocs, UniformNodes(4, 30, 40), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	router, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ctrl, err := NewController(ControllerConfig{Interval: 10, BudgetBytes: 50e9}, p, movies, router)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	// 0.5 arrivals/min on m01 (length 90) ≈ 45 concurrent viewers — far
	// past one replica's 10-stream target.
	rates := []float64{0.5, 0.01, 0.01, 0.01}
	driveController(t, ctrl, rates, 60, 50e9)
	s := ctrl.Stats()
	if s.ReplicaAdds == 0 {
		t.Fatalf("no replicas added under sustained 4.5x overload: %+v", s)
	}
	if got := router.Replicas("m01"); got < 2 {
		t.Fatalf("router sees %d replicas of m01, want >= 2", got)
	}
	if s.SpentBytes != float64(s.MigrationsStarted)*movies[0].Length*45e6 {
		t.Fatalf("spent %.0f bytes, want %d x %.0f", s.SpentBytes, s.MigrationsStarted, movies[0].Length*45e6)
	}
}

// TestControllerBudgetBlocksMigrations pins budget semantics: a budget
// smaller than one copy means zero migrations, with the exhaustion flag
// raised.
func TestControllerBudgetBlocksMigrations(t *testing.T) {
	movies, allocs := churnCatalog(t, 4)
	p, err := PackAllocs(allocs, UniformNodes(4, 30, 40), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	router, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ctrl, err := NewController(ControllerConfig{Interval: 10, BudgetBytes: 1e6}, p, movies, router)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	driveController(t, ctrl, []float64{0.5, 0.01, 0.01, 0.01}, 30, 1e6)
	s := ctrl.Stats()
	if s.MigrationsStarted != 0 || s.SpentBytes != 0 {
		t.Fatalf("migrations ran past a too-small budget: %+v", s)
	}
	if !s.BudgetExhausted {
		t.Fatalf("budget exhaustion not flagged: %+v", s)
	}
}

// TestControllerDegradationLadder walks the ladder directly: saturating
// the router with no migration headroom escalates, and sustained calm
// descends with hysteresis.
func TestControllerDegradationLadder(t *testing.T) {
	movies, allocs := churnCatalog(t, 4)
	p, err := PackAllocs(allocs, UniformNodes(2, 20, 40), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	router, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	// Budget 1 byte: the controller can never migrate its way out.
	ctrl, err := NewController(ControllerConfig{Interval: 10, BudgetBytes: 1}, p, movies, router)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	// Saturate: fill the cluster to its stream capacity.
	for i := 0; i < 40; i++ {
		if _, err := router.RouteLoad(movies[i%4].Name); err != nil {
			break
		}
	}
	for i := range movies {
		ctrl.ObserveArrival(i)
	}
	ctrl.Tick(10)
	if ctrl.Level() != DegradeCold {
		t.Fatalf("level after one saturated tick = %v, want %v", ctrl.Level(), DegradeCold)
	}
	for i := range movies {
		ctrl.ObserveArrival(i)
	}
	ctrl.Tick(20)
	if ctrl.Level() != DegradeHotOnly {
		t.Fatalf("level after two saturated ticks = %v, want %v", ctrl.Level(), DegradeHotOnly)
	}
	// At hot-only, the cold tail must be refused and the head admitted.
	if !ctrl.Admit(0) {
		t.Fatal("hottest title shed at hot-only level")
	}
	if ctrl.Admit(3) {
		t.Fatal("coldest title admitted at hot-only level")
	}
	// Drain the cluster; RestoreTicks calm ticks descend one rung each.
	live, _ := router.Load()
	for _, m := range movies {
		for i := 0; i < live; i++ {
			for _, a := range p.Replicas(m.Name) {
				router.Release(m.Name, a.Node)
			}
		}
	}
	for k := 0; ctrl.Level() != DegradeNone && k < 10; k++ {
		ctrl.Tick(30 + 10*float64(k))
	}
	if ctrl.Level() != DegradeNone {
		t.Fatalf("level never restored after drain: %v", ctrl.Level())
	}
	if ctrl.Stats().PeakLevel != DegradeHotOnly {
		t.Fatalf("peak level = %v, want %v", ctrl.Stats().PeakLevel, DegradeHotOnly)
	}
	for i := range movies {
		if !ctrl.Admit(i) {
			t.Fatalf("movie %d still shed after restore", i)
		}
	}
}

// TestControllerEvacuatesHottestFirst pins the evacuation drain order:
// replicas leave a quarantined node in descending demand (EWMA arrival
// rate × movie length, catalog index on ties), so an evacuation cut
// short by the concurrency cap or the byte budget has already rescued
// the replicas serving the most viewers.
func TestControllerEvacuatesHottestFirst(t *testing.T) {
	build := func(maxConcurrent int) (*Controller, *Router) {
		t.Helper()
		movies := make([]workload.Movie, 4)
		var asg []Assignment
		for i := range movies {
			name := fmt.Sprintf("m%d", i)
			movies[i] = workload.Movie{Name: name, Length: 120, Wait: 1, Popularity: 1}
			for r, node := range []string{"node0", "node1"} {
				asg = append(asg, Assignment{
					MovieAlloc: MovieAlloc{Movie: name, N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: 1},
					Node:       node, Replica: r,
				})
			}
		}
		p := Placement{Nodes: UniformNodes(6, 80, 80), Assignments: asg}
		router, err := NewRouter(p, 1)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := router.SetGrayPolicy(PolicyHealth, HealthConfig{}); err != nil {
			t.Fatalf("SetGrayPolicy: %v", err)
		}
		if err := router.SetHealthState("node0", Quarantined); err != nil {
			t.Fatalf("SetHealthState: %v", err)
		}
		ctrl, err := NewController(ControllerConfig{
			Interval: 10, EvacuateDwell: 5, MaxConcurrent: maxConcurrent,
		}, p, movies, router)
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		// Distinct per-movie demand: m2 > m0 > m3 > m1.
		for i, n := range []int{6, 2, 8, 4} {
			for j := 0; j < n; j++ {
				ctrl.ObserveArrival(i)
			}
		}
		return ctrl, router
	}

	ctrl, _ := build(4)
	var order []string
	for _, mg := range ctrl.Tick(10) {
		if mg.Drain == "node0" {
			order = append(order, mg.Movie)
		}
	}
	want := []string{"m2", "m0", "m3", "m1"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("drain order = %v, want %v", order, want)
	}

	// Capped at one migration, only the hottest replica drains.
	ctrl, _ = build(1)
	var capped []string
	for _, mg := range ctrl.Tick(10) {
		if mg.Drain == "node0" {
			capped = append(capped, mg.Movie)
		}
	}
	if !reflect.DeepEqual(capped, []string{"m2"}) {
		t.Errorf("capped drain order = %v, want [m2]", capped)
	}
}

// TestControllerSkipsNodesDownOnRouter pins where the controller reads
// node outages: from the router. Nodes marked down on the router alone
// — never reported to the controller — are neither a migration's
// destination nor its source, though one is the emptiest node and the
// other hosts the primary copy.
func TestControllerSkipsNodesDownOnRouter(t *testing.T) {
	movies := []workload.Movie{{Name: "hot", Length: 120, Wait: 1, Popularity: 1}}
	var asg []Assignment
	for r, node := range []string{"node0", "node1"} {
		asg = append(asg, Assignment{
			MovieAlloc: MovieAlloc{Movie: "hot", N: 10, B: 8, Hit: 0.7, Wait: 0.3, Weight: 1},
			Node:       node, Replica: r,
		})
	}
	p := Placement{Nodes: UniformNodes(4, 80, 80), Assignments: asg}
	router, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ctrl, err := NewController(ControllerConfig{Interval: 10}, p, movies, router)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	down := map[string]bool{"node0": true, "node2": true}
	for n := range down {
		if err := router.SetNodeDown(n, true); err != nil {
			t.Fatalf("SetNodeDown(%s): %v", n, err)
		}
	}
	for a := 0; a < 200; a++ {
		ctrl.ObserveArrival(0)
	}
	started := ctrl.Tick(10)
	if len(started) == 0 {
		t.Fatal("a 20-viewer/min title on one up replica started no migration")
	}
	for _, m := range started {
		if down[m.To] || down[m.From] {
			t.Errorf("migration %s → %s touches a node the router has down", m.From, m.To)
		}
	}
}

// TestNewControllerRefusesForeignRouter pins the constructor's checks
// that the controller and the router index one table: a router built
// over other nodes, or without one of the catalog's movies, and a
// catalog movie the placement lacks are ErrBadCluster.
func TestNewControllerRefusesForeignRouter(t *testing.T) {
	movies, allocs := churnCatalog(t, 3)
	p, err := PackAllocs(allocs, UniformNodes(3, 60, 60), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	other := p
	other.Nodes = slices.Clone(p.Nodes)
	other.Nodes[0], other.Nodes[1] = other.Nodes[1], other.Nodes[0]
	fewer := p
	fewer.Assignments = nil
	for _, a := range p.Assignments {
		if a.Movie != movies[2].Name {
			fewer.Assignments = append(fewer.Assignments, a)
		}
	}
	extra := append(slices.Clone(movies), workload.Movie{Name: "unplaced", Length: 90, Wait: 1, Popularity: 1})
	for _, tc := range []struct {
		name   string
		router Placement
		movies []workload.Movie
	}{
		{"nodes reordered", other, movies},
		{"movie missing from the router", fewer, movies},
		{"movie missing from the placement", p, extra},
	} {
		router, err := NewRouter(tc.router, 1)
		if err != nil {
			t.Fatalf("%s: NewRouter: %v", tc.name, err)
		}
		if _, err := NewController(ControllerConfig{}, p, tc.movies, router); !errors.Is(err, ErrBadCluster) {
			t.Errorf("%s: NewController error %v, want ErrBadCluster", tc.name, err)
		}
	}
}

package cluster

import (
	"errors"
	"sync"
	"testing"
)

func testPlacement(t *testing.T) Placement {
	t.Helper()
	return testPlacementStreams(t, 30)
}

// testPlacementStreams is testPlacement on nodes with the given stream
// budget; tests that pile up hundreds of unreleased requests use a
// budget they never reach, so RouteLoad does not shed them as saturated.
func testPlacementStreams(t *testing.T, streams int) Placement {
	t.Helper()
	allocs := []MovieAlloc{
		{Movie: "hot", N: 12, B: 6, Weight: 0.7},
		{Movie: "cold", N: 8, B: 4, Weight: 0.3},
	}
	p, err := PackAllocs(allocs, UniformNodes(3, streams, 20), Options{Replicas: 2, HotMovies: 1})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return p
}

// TestRouterDeterministic is the satellite property: two routers with
// the same placement and seed, driven through the same call sequence,
// make identical decisions.
func TestRouterDeterministic(t *testing.T) {
	p := testPlacement(t)
	r1, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r2, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	movies := []string{"hot", "cold", "hot", "hot", "cold"}
	type viewer struct{ movie, node string }
	var live1, live2 []viewer
	for i := 0; i < 400; i++ {
		m := movies[i%len(movies)]
		d1, err1 := r1.RouteLoad(m)
		d2, err2 := r2.RouteLoad(m)
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("call %d: %v/%v vs %v/%v", i, d1, err1, d2, err2)
		}
		if err1 == nil {
			live1 = append(live1, viewer{m, d1.Node})
			live2 = append(live2, viewer{m, d2.Node})
		}
		if i%3 == 2 && len(live1) > 0 {
			r1.Release(live1[0].movie, live1[0].node)
			r2.Release(live2[0].movie, live2[0].node)
			live1, live2 = live1[1:], live2[1:]
		}
	}
	if r1.Stats() != r2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.Stats(), r2.Stats())
	}
}

func TestRouterFailover(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 7)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	reps := p.Replicas("hot")
	if len(reps) != 2 {
		t.Fatalf("hot has %d replicas, want 2", len(reps))
	}
	if err := r.SetNodeDown(reps[0].Node, true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
	}
	for i := 0; i < 10; i++ {
		d, err := r.RouteLoad("hot")
		if err != nil {
			t.Fatalf("RouteLoad: %v", err)
		}
		if d.Node != reps[1].Node || !d.Failover {
			t.Fatalf("got %+v, want failover to %s", d, reps[1].Node)
		}
	}
	if s := r.Stats(); s.Failovers != 10 {
		t.Errorf("failovers=%d, want 10", s.Failovers)
	}
}

func TestRouterShedsWhenAllReplicasDown(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 7)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for _, a := range p.Replicas("cold") {
		if err := r.SetNodeDown(a.Node, true); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	if _, err := r.RouteLoad("cold"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if s := r.Stats(); s.Sheds != 1 {
		t.Errorf("sheds=%d, want 1", s.Sheds)
	}
	// The node coming back restores service.
	for _, a := range p.Replicas("cold") {
		if err := r.SetNodeDown(a.Node, false); err != nil {
			t.Fatalf("SetNodeDown: %v", err)
		}
	}
	if _, err := r.RouteLoad("cold"); err != nil {
		t.Fatalf("RouteLoad after repair: %v", err)
	}
}

func TestRouterUnknownInputs(t *testing.T) {
	r, err := NewRouter(testPlacement(t), 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if _, err := r.RouteLoad("nope"); !errors.Is(err, ErrUnknownMovie) {
		t.Errorf("RouteLoad(nope): got %v, want ErrUnknownMovie", err)
	}
	if err := r.SetNodeDown("nope", true); !errors.Is(err, ErrBadCluster) {
		t.Errorf("SetNodeDown(nope): got %v, want ErrBadCluster", err)
	}
}

// TestRouteLoadProbationIsFallback: RouteLoad makes RouteGray's replica
// selection, so a Probation host takes no RouteLoad traffic while a
// healthier replica is routable, and serves as the fallback once none is.
func TestRouteLoadProbationIsFallback(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 9)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	reps := p.Replicas("hot")
	if err := r.SetHealthState(reps[1].Node, Probation); err != nil {
		t.Fatalf("SetHealthState: %v", err)
	}
	for i := 0; i < 20; i++ {
		d, err := r.RouteLoad("hot")
		if err != nil || d.Node != reps[0].Node {
			t.Fatalf("request %d: %+v, %v; want the healthy primary %s", i, d, err, reps[0].Node)
		}
	}
	if err := r.SetNodeDown(reps[0].Node, true); err != nil {
		t.Fatalf("SetNodeDown: %v", err)
	}
	if d, err := r.RouteLoad("hot"); err != nil || d.Node != reps[1].Node || !d.Failover {
		t.Fatalf("primary down: %+v, %v; want a failover to the probation host %s", d, err, reps[1].Node)
	}
}

// TestRouterConcurrent hammers the router from many goroutines so the
// race detector can vet the locking; totals must balance. Half the
// requests are never released, so the nodes' budgets sit out of reach.
func TestRouterConcurrent(t *testing.T) {
	r, err := NewRouter(testPlacementStreams(t, 1000), 3)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			movie := "hot"
			if g%2 == 1 {
				movie = "cold"
			}
			for i := 0; i < per; i++ {
				d, err := r.RouteLoad(movie)
				if err != nil {
					t.Errorf("RouteLoad: %v", err)
					return
				}
				if i%2 == 0 {
					r.Release(movie, d.Node)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := r.Stats(); s.Routed != goroutines*per {
		t.Errorf("routed=%d, want %d", s.Routed, goroutines*per)
	}
}

func TestRouterSpreadsLoadAcrossReplicas(t *testing.T) {
	p := testPlacementStreams(t, 1000)
	r, err := NewRouter(p, 5)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		d, err := r.RouteLoad("hot")
		if err != nil {
			t.Fatalf("RouteLoad: %v", err)
		}
		counts[d.Node]++ // never released: live load accumulates
	}
	reps := p.Replicas("hot")
	for _, a := range reps {
		if counts[a.Node] < 100 {
			t.Errorf("replica host %s got %d of 600 requests — load weighting broken: %v",
				a.Node, counts[a.Node], counts)
		}
	}
}

// TestRouterRebalanceDeterministic extends the determinism property
// across live rebalances: two same-seed routers driven through an
// identical interleaving of RouteLoad, Release, AddReplica,
// RemoveReplica and SetNodeDown make identical decisions throughout.
func TestRouterRebalanceDeterministic(t *testing.T) {
	p := testPlacement(t)
	r1, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r2, err := NewRouter(p, 42)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	spare := func(r *Router) string {
		// A node without a "hot" replica yet, same on both routers.
		for _, n := range []string{"node0", "node1", "node2"} {
			hosts := map[string]bool{}
			for _, a := range p.Replicas("hot") {
				hosts[a.Node] = true
			}
			if !hosts[n] {
				return n
			}
		}
		t.Fatal("no spare node")
		return ""
	}
	movies := []string{"hot", "cold", "hot", "hot", "cold"}
	var live1, live2 []struct{ movie, node string }
	for i := 0; i < 600; i++ {
		switch {
		case i == 150:
			if err := r1.AddReplica("hot", spare(r1), 12); err != nil {
				t.Fatalf("AddReplica r1: %v", err)
			}
			if err := r2.AddReplica("hot", spare(r2), 12); err != nil {
				t.Fatalf("AddReplica r2: %v", err)
			}
		case i == 300:
			r1.SetNodeDown("node0", true)
			r2.SetNodeDown("node0", true)
		case i == 400:
			r1.SetNodeDown("node0", false)
			r2.SetNodeDown("node0", false)
		case i == 450:
			// Remove the replica added at step 150 on both.
			if err := r1.RemoveReplica("hot", spare(r1)); err != nil {
				t.Fatalf("RemoveReplica r1: %v", err)
			}
			if err := r2.RemoveReplica("hot", spare(r2)); err != nil {
				t.Fatalf("RemoveReplica r2: %v", err)
			}
		}
		m := movies[i%len(movies)]
		d1, err1 := r1.RouteLoad(m)
		d2, err2 := r2.RouteLoad(m)
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("call %d: %+v/%v vs %+v/%v", i, d1, err1, d2, err2)
		}
		if err1 == nil {
			live1 = append(live1, struct{ movie, node string }{m, d1.Node})
			live2 = append(live2, struct{ movie, node string }{m, d2.Node})
		}
		if i%3 == 2 && len(live1) > 0 {
			r1.Release(live1[0].movie, live1[0].node)
			r2.Release(live2[0].movie, live2[0].node)
			live1, live2 = live1[1:], live2[1:]
		}
	}
	if r1.Stats() != r2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", r1.Stats(), r2.Stats())
	}
}

// TestRouterRebalanceConcurrent hammers RouteLoad/Release while another
// goroutine adds and removes replicas and flips node state — the -race
// certification that rebalances are atomic against traffic.
func TestRouterRebalanceConcurrent(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 3)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	hosts := map[string]bool{}
	for _, a := range p.Replicas("cold") {
		hosts[a.Node] = true
	}
	var spare string
	for _, n := range []string{"node0", "node1", "node2"} {
		if !hosts[n] {
			spare = n
			break
		}
	}
	const goroutines, per = 6, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			movie := "hot"
			if g%2 == 1 {
				movie = "cold"
			}
			for i := 0; i < per; i++ {
				d, err := r.RouteLoad(movie)
				if err != nil {
					continue // saturation is legal mid-rebalance
				}
				if i%2 == 0 {
					r.Release(movie, d.Node)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := r.AddReplica("cold", spare, 8); err != nil {
				t.Errorf("AddReplica: %v", err)
				return
			}
			_ = r.Replicas("cold")
			_, _ = r.Load()
			_ = r.IsDown(spare)
			if err := r.RemoveReplica("cold", spare); err != nil {
				t.Errorf("RemoveReplica: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestRouterLoadTypedErrors pins the typed shedding split: saturated
// hosts yield ErrSaturated, downed hosts ErrUnavailable.
func TestRouterLoadTypedErrors(t *testing.T) {
	allocs := []MovieAlloc{{Movie: "only", N: 2, B: 1, Weight: 1}}
	p, err := PackAllocs(allocs, UniformNodes(1, 2, 10), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	r, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.RouteLoad("only"); err != nil {
			t.Fatalf("RouteLoad %d under capacity: %v", i, err)
		}
	}
	if _, err := r.RouteLoad("only"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("at capacity: err = %v, want ErrSaturated", err)
	}
	r.SetNodeDown("node0", true)
	if _, err := r.RouteLoad("only"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("node down: err = %v, want ErrUnavailable", err)
	}
	r.SetNodeDown("node0", false)
	r.Release("only", "node0")
	if d, err := r.RouteLoad("only"); err != nil || d.Node != "node0" {
		t.Fatalf("after release: %+v, %v", d, err)
	}
}

// TestStrayReleaseKeepsNodeFull: a release that matches no booked
// viewer — of a movie the router does not place, or of a placed movie
// with no viewer on the node — changes nothing, so a saturated node
// stays saturated and its live count stays the sum of its per-movie
// counts.
func TestStrayReleaseKeepsNodeFull(t *testing.T) {
	allocs := []MovieAlloc{{Movie: "a", N: 4, B: 1, Weight: 1}, {Movie: "b", N: 1, B: 1, Weight: 1}}
	p, err := PackAllocs(allocs, UniformNodes(1, 5, 10), Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	r, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.RouteLoad("a"); err != nil {
			t.Fatalf("RouteLoad %d under capacity: %v", i, err)
		}
	}
	r.Release("ghost", "node0")
	r.Release("b", "node0")
	r.ReleaseDisk("b", "node0", 0)
	if _, err := r.RouteLoad("a"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("after stray releases: err = %v, want ErrSaturated", err)
	}
	r.mu.Lock()
	live, booked := r.live[0], 0
	for m := range r.names {
		booked += *r.viewers(m, 0)
	}
	r.mu.Unlock()
	if live != 5 || booked != 5 {
		t.Fatalf("node0 live %d, booked viewers %d; want 5 and 5", live, booked)
	}
	// A booked viewer's release still frees its stream.
	r.Release("a", "node0")
	if _, err := r.RouteLoad("a"); err != nil {
		t.Fatalf("after a booked release: %v", err)
	}
}

// TestRouterReplicaGuards pins the rebalance-safety invariants.
func TestRouterReplicaGuards(t *testing.T) {
	p := testPlacement(t)
	r, err := NewRouter(p, 1)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	primary := p.Replicas("hot")[0].Node
	if err := r.AddReplica("hot", primary, 12); err == nil {
		t.Error("duplicate AddReplica accepted")
	}
	if err := r.AddReplica("nope", "node0", 12); err == nil {
		t.Error("AddReplica of unknown movie accepted")
	}
	if err := r.AddReplica("hot", "node9", 12); err == nil {
		t.Error("AddReplica on unknown node accepted")
	}
	if err := r.RemoveReplica("hot", primary); err == nil {
		t.Error("RemoveReplica of the primary accepted")
	}
	if err := r.RemoveReplica("cold", "node9"); err == nil {
		t.Error("RemoveReplica on unknown node accepted")
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vodalloc/internal/workload"
)

// refRouter is a reference model of the router's replica bookkeeping,
// kept the plain name-keyed way: hosts and placed capacities per movie
// name, live viewers per movie+"\x00"+node key, and per-node down flags
// and live loads. It decides every replica operation's error, and
// judges each routing outcome the router reports: the decision's
// AllocN, Live and Failover, and the shed error's type.
type refRouter struct {
	max    map[string]int // node ID → stream capacity
	hosts  map[string][]string
	caps   map[string][]int
	liveBy map[string]int
	live   map[string]int
	down   map[string]bool
	// resumed counts replicas re-added while viewers of the removed
	// copy were still playing.
	resumed int
}

func newRefRouter(p Placement) *refRouter {
	ref := &refRouter{
		max:    map[string]int{},
		hosts:  map[string][]string{},
		caps:   map[string][]int{},
		liveBy: map[string]int{},
		live:   map[string]int{},
		down:   map[string]bool{},
	}
	for _, n := range p.Nodes {
		ref.max[n.ID] = n.MaxStreams
	}
	for _, a := range p.Assignments {
		if _, ok := ref.hosts[a.Movie]; ok {
			continue
		}
		for _, rep := range p.Replicas(a.Movie) {
			ref.hosts[a.Movie] = append(ref.hosts[a.Movie], rep.Node)
			ref.caps[a.Movie] = append(ref.caps[a.Movie], rep.N)
		}
	}
	return ref
}

func refKey(movie, node string) string { return movie + "\x00" + node }

// args is the replica operations' shared argument check.
func (ref *refRouter) args(movie, node string) error {
	if _, ok := ref.max[node]; !ok {
		return ErrBadCluster
	}
	if _, ok := ref.hosts[movie]; !ok {
		return ErrUnknownMovie
	}
	return nil
}

func (ref *refRouter) drop(movie string, k int) {
	ref.hosts[movie] = slices.Delete(slices.Clone(ref.hosts[movie]), k, k+1)
	ref.caps[movie] = slices.Delete(slices.Clone(ref.caps[movie]), k, k+1)
}

func (ref *refRouter) add(movie, node string, n int) error {
	if err := ref.args(movie, node); err != nil {
		return err
	}
	if n < 1 || slices.Contains(ref.hosts[movie], node) {
		return ErrBadCluster
	}
	if ref.liveBy[refKey(movie, node)] > 0 {
		ref.resumed++
	}
	ref.hosts[movie] = append(slices.Clone(ref.hosts[movie]), node)
	ref.caps[movie] = append(slices.Clone(ref.caps[movie]), n)
	return nil
}

func (ref *refRouter) remove(movie, node string) error {
	if err := ref.args(movie, node); err != nil {
		return err
	}
	k := slices.Index(ref.hosts[movie], node)
	if k <= 0 {
		return ErrBadCluster // no such replica, or the primary
	}
	ref.drop(movie, k)
	return nil
}

func (ref *refRouter) evacuate(movie, node string, state func(string) HealthState) error {
	if err := ref.args(movie, node); err != nil {
		return err
	}
	k := slices.Index(ref.hosts[movie], node)
	if k < 0 {
		return ErrBadCluster
	}
	routable := 0
	for _, h := range ref.hosts[movie] {
		if h != node && !ref.down[h] && state(h) != Quarantined {
			routable++
		}
	}
	if routable == 0 {
		return ErrUnavailable
	}
	ref.drop(movie, k)
	return nil
}

func (ref *refRouter) setDown(node string, down bool) error {
	if _, ok := ref.max[node]; !ok {
		return ErrBadCluster
	}
	ref.down[node] = down
	return nil
}

// shed is the error a route of the movie must end in when no host can
// take it, or nil when some host can: an up, unquarantined host below
// its stream capacity.
func (ref *refRouter) shed(movie string, state func(string) HealthState) error {
	hosts, ok := ref.hosts[movie]
	if !ok {
		return ErrUnknownMovie
	}
	alive := false
	for _, h := range hosts {
		if ref.down[h] || state(h) == Quarantined {
			continue
		}
		alive = true
		if ref.live[h] < ref.max[h] {
			return nil
		}
	}
	if alive {
		return ErrSaturated
	}
	return ErrUnavailable
}

// admit checks a successful decision against the books and books it.
// probe marks a probation probe, whose node the router judges after
// routing, so its state is not checked.
func (ref *refRouter) admit(movie string, d LoadDecision, probe bool, state func(string) HealthState) error {
	hosts := ref.hosts[movie]
	k := slices.Index(hosts, d.Node)
	switch {
	case k < 0:
		return fmt.Errorf("routed %s to %s, not a host of %v", movie, d.Node, hosts)
	case ref.down[d.Node]:
		return fmt.Errorf("routed %s to down node %s", movie, d.Node)
	case !probe && state(d.Node) == Quarantined:
		return fmt.Errorf("routed %s to quarantined node %s", movie, d.Node)
	case ref.live[d.Node] >= ref.max[d.Node]:
		return fmt.Errorf("routed %s to full node %s", movie, d.Node)
	}
	key := refKey(movie, d.Node)
	want := LoadDecision{Node: d.Node, Failover: ref.down[hosts[0]], AllocN: ref.caps[movie][k], Live: ref.liveBy[key] + 1}
	if d != want {
		return fmt.Errorf("decision %+v, want %+v", d, want)
	}
	ref.liveBy[key]++
	ref.live[d.Node]++
	return nil
}

func (ref *refRouter) release(movie, node string) {
	if _, ok := ref.max[node]; !ok {
		return
	}
	if ref.live[node] > 0 {
		ref.live[node]--
	}
	if key := refKey(movie, node); ref.liveBy[key] > 0 {
		ref.liveBy[key]--
	}
}

// matches compares the router's replica table and live counts with the
// reference's.
func (ref *refRouter) matches(r *Router) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.names) != len(ref.hosts) {
		return fmt.Errorf("router has %d movies, reference %d", len(r.names), len(ref.hosts))
	}
	for m, movie := range r.names {
		var hosts []string
		var caps []int
		for _, rep := range r.replicas[m] {
			hosts = append(hosts, r.ids[rep.node])
			caps = append(caps, rep.n)
		}
		if !slices.Equal(hosts, ref.hosts[movie]) || !slices.Equal(caps, ref.caps[movie]) {
			return fmt.Errorf("%s: replicas %v caps %v, want %v caps %v", movie, hosts, caps, ref.hosts[movie], ref.caps[movie])
		}
		for i, node := range r.ids {
			if got, want := *r.viewers(m, i), ref.liveBy[refKey(movie, node)]; got != want {
				return fmt.Errorf("%s on %s: %d live viewers, want %d", movie, node, got, want)
			}
		}
	}
	for i, node := range r.ids {
		if r.live[i] != ref.live[node] {
			return fmt.Errorf("%s: live %d, want %d", node, r.live[i], ref.live[node])
		}
	}
	return nil
}

// sameErr reports whether got is want's kind: both nil, or got wraps
// the sentinel want.
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// TestRouterTableMatchesNameKeyedReference drives routers through
// random sequences of every operation on the replica table — adds,
// removals and evacuations, outages and health overrides, RouteLoad and
// RouteGray (hedged, and refused on NaN waits), Release and ReleaseDisk,
// bogus releases included — under every gray posture, and checks each
// decision, each error and the table after every step against
// refRouter. Replicas are removed and re-added while their viewers
// still play, so the live counts must outlive the copy.
func TestRouterTableMatchesNameKeyedReference(t *testing.T) {
	movies, err := workload.ZipfCatalog(4, 0.8)
	if err != nil {
		t.Fatalf("ZipfCatalog: %v", err)
	}
	allocs := make([]MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = MovieAlloc{Movie: m.Name, N: 4 + i, B: 2, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	p, err := PackAllocs(allocs, UniformNodes(5, 16, 100), Options{Replicas: 3})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	movieNames := []string{"ghost"} // one unplaced name
	for _, m := range movies {
		movieNames = append(movieNames, m.Name)
	}
	nodeNames := []string{"nowhere"} // one unknown node
	for _, n := range p.Nodes {
		nodeNames = append(nodeNames, n.ID)
	}

	type viewer struct {
		movie, node string
		disk        int
	}
	resumed := 0
	for _, posture := range []string{"unarmed", "blind", "health", "hedge"} {
		var hedges uint64
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r, err := NewRouter(p, seed)
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			if posture != "unarmed" {
				pol, _ := ParseRoutePolicy(posture)
				if err := r.SetGrayPolicy(pol, HealthConfig{}); err != nil {
					t.Fatalf("SetGrayPolicy: %v", err)
				}
			}
			ref := newRefRouter(p)
			state := func(node string) HealthState {
				st, _ := r.HealthState(node)
				return st
			}
			var playing []viewer
			now := 0.0
			for step := 0; step < 3000; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s seed %d step %d: %s", posture, seed, step, fmt.Sprintf(format, args...))
				}
				movie := movieNames[rng.Intn(len(movieNames))]
				if rng.Intn(20) != 0 {
					movie = movieNames[1+rng.Intn(len(movies))]
				}
				node := nodeNames[rng.Intn(len(nodeNames))]
				if rng.Intn(20) != 0 {
					node = nodeNames[1+rng.Intn(len(p.Nodes))]
				}
				switch op := rng.Intn(100); {
				case op < 20: // RouteLoad
					d, err := r.RouteLoad(movie)
					if want := ref.shed(movie, state); !sameErr(err, want) {
						fail("RouteLoad(%s) error %v, want %v", movie, err, want)
					}
					if err == nil {
						if err := ref.admit(movie, d, false, state); err != nil {
							fail("RouteLoad: %v", err)
						}
						playing = append(playing, viewer{movie, d.Node, -1})
					}
				case op < 40: // RouteGray, now and then slow enough to hedge, rarely refused
					now += 0.05
					poison := rng.Intn(40) == 0
					gd, err := r.RouteGray(movie, now, func(n, _, _ int) float64 {
						switch {
						case poison:
							return math.NaN()
						case rng.Intn(40) == 0:
							return 30
						}
						return 1
					})
					// A probe's node is judged after routing, which can
					// leave it quarantined; every other outcome leaves the
					// states it was routed under.
					want := ref.shed(movie, state)
					if poison && want == nil {
						want = ErrBadCluster
					}
					if !(err == nil && gd.Probe) && !sameErr(err, want) {
						fail("RouteGray(%s) error %v, want %v", movie, err, want)
					}
					if err == nil {
						if err := ref.admit(movie, gd.LoadDecision, gd.Probe, state); err != nil {
							fail("RouteGray: %v", err)
						}
						playing = append(playing, viewer{movie, gd.Node, gd.Disk})
					}
				case op < 74: // a departure
					if len(playing) == 0 {
						break
					}
					k := rng.Intn(len(playing))
					v := playing[k]
					playing = slices.Delete(playing, k, k+1)
					if v.disk >= 0 && rng.Intn(2) == 0 {
						r.ReleaseDisk(v.movie, v.node, v.disk)
					} else {
						r.Release(v.movie, v.node)
					}
					ref.release(v.movie, v.node)
				case op < 77: // a release nobody booked
					r.Release(movie, node)
					ref.release(movie, node)
				case op < 85:
					n := rng.Intn(12)
					if err, want := r.AddReplica(movie, node, n), ref.add(movie, node, n); !sameErr(err, want) {
						fail("AddReplica(%s, %s, %d) error %v, want %v", movie, node, n, err, want)
					}
				case op < 91:
					if err, want := r.RemoveReplica(movie, node), ref.remove(movie, node); !sameErr(err, want) {
						fail("RemoveReplica(%s, %s) error %v, want %v", movie, node, err, want)
					}
				case op < 94:
					want := ref.evacuate(movie, node, state)
					if err := r.EvacuateReplica(movie, node); !sameErr(err, want) {
						fail("EvacuateReplica(%s, %s) error %v, want %v", movie, node, err, want)
					}
				case op < 97:
					down := rng.Intn(4) == 0
					if err, want := r.SetNodeDown(node, down), ref.setDown(node, down); !sameErr(err, want) {
						fail("SetNodeDown(%s, %t) error %v, want %v", node, down, err, want)
					}
				default:
					st := HealthState(rng.Intn(5)) // 4 is no state
					var want error
					if _, ok := ref.max[node]; !ok || st > Probation {
						want = ErrBadCluster
					}
					if err := r.SetHealthState(node, st); !sameErr(err, want) {
						fail("SetHealthState(%s, %v) error %v, want %v", node, st, err, want)
					}
				}
				if err := ref.matches(r); err != nil {
					fail("%v", err)
				}
			}
			hedges += r.GrayStats().Hedges
			resumed += ref.resumed
		}
		if posture == "hedge" && hedges == 0 {
			t.Error("hedge posture never hedged")
		}
	}
	if resumed == 0 {
		t.Error("no replica was re-added while viewers of its removed copy played")
	}
}

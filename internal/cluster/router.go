package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Decision is one routing outcome: which node serves the request, and
// whether the primary replica's node was down (a failover).
type Decision struct {
	Node     string
	Failover bool
}

// RouterStats counts a router's outcomes.
type RouterStats struct {
	// Routed counts requests handed to a node.
	Routed uint64
	// Failovers counts routed requests whose primary host was down.
	Failovers uint64
	// Sheds counts requests with every replica host down.
	Sheds uint64
}

// Router spreads requests for a placed catalog over replica hosts. The
// choice is weighted by each host's placed stream capacity divided by
// its live load (so bigger allocations and idler nodes attract more
// requests), drawn from a seeded generator: a fixed seed and call
// sequence reproduce the same decisions exactly. When a host is marked
// down its replicas drop out of the draw; requests whose primary is
// down but some replica is up fail over, and requests with no live
// host return ErrUnavailable (a shed).
type Router struct {
	mu   sync.Mutex
	rng  *rand.Rand
	ids  []string         // node index → ID
	node map[string]int   // node ID → index
	host map[string][]int // movie → host node indexes in replica order
	cap  map[string][]int // movie → per-host placed streams, same order
	down []bool
	live []int // in-flight requests per node

	// maxStreams is each node's stream capacity; RouteLoad (the churn
	// path) sheds a host whose live load has reached it, while Route
	// (the static path) ignores it for parity with pre-capacity runs.
	maxStreams []int
	// liveBy tracks in-flight viewers per (movie, node) replica, for the
	// contention-aware hit accounting of the churn simulator.
	liveBy map[string]int

	stats RouterStats

	// Gray-failure resilience (see health.go): per-node latency trackers
	// and quarantine states, the routing policy, and the global observed-
	// wait window that sets the hedging deadline. A Quarantined node is
	// excluded from every routing path — Route and RouteLoad included —
	// never just from the gray path.
	policy     RoutePolicy
	hcfg       HealthConfig
	health     []nodeHealth
	refScratch []float64    // cluster reference median buffer
	waits      sampleWindow // recent experienced waits, all nodes
	gray       GrayRouterStats

	// Disk granularity (armed by SetGrayPolicy): disks is each node's
	// disk count, diskLive the per-disk in-flight streams (summing to
	// live), and diskHealth — allocated only under HealthConfig.
	// DiskHealth — the per-disk trackers and quarantine machines. A
	// quarantined disk takes no new streams; ones already playing drain
	// naturally, exactly like a removed replica.
	disks      []int
	diskLive   [][]int
	diskHealth [][]nodeHealth

	// hedgeTokens is the hedge budget token bucket (meaningful only when
	// hcfg.HedgeBudget > 0; see HealthConfig.HedgeBudget).
	hedgeTokens float64
}

// NewRouter builds a router over the placement, seeded for
// reproducibility.
func NewRouter(p Placement, seed int64) (*Router, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		rng:        rand.New(rand.NewSource(seed)),
		ids:        make([]string, len(p.Nodes)),
		node:       make(map[string]int, len(p.Nodes)),
		host:       make(map[string][]int),
		cap:        make(map[string][]int),
		down:       make([]bool, len(p.Nodes)),
		live:       make([]int, len(p.Nodes)),
		maxStreams: make([]int, len(p.Nodes)),
		liveBy:     make(map[string]int),
	}
	r.hcfg = HealthConfig{}.withDefaults()
	r.health = make([]nodeHealth, len(p.Nodes))
	r.disks = make([]int, len(p.Nodes))
	for i, n := range p.Nodes {
		r.ids[i] = n.ID
		r.node[n.ID] = i
		r.maxStreams[i] = n.MaxStreams
		r.disks[i] = n.disks()
	}
	seenMovie := map[string]bool{}
	for _, a := range p.Assignments {
		seenMovie[a.Movie] = true
	}
	for m := range seenMovie {
		for _, a := range p.Replicas(m) {
			r.host[m] = append(r.host[m], r.node[a.Node])
			r.cap[m] = append(r.cap[m], a.N)
		}
	}
	return r, nil
}

// SetNodeDown marks a node down (true) or back up (false).
func (r *Router) SetNodeDown(id string, down bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[id]
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrBadCluster, id)
	}
	r.down[i] = down
	return nil
}

// Route picks a node for one request of the movie and counts it as
// in-flight there until Done is called with the chosen node.
func (r *Router) Route(movie string) (Decision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hosts, ok := r.host[movie]
	if !ok {
		return Decision{}, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	// Collect live hosts and their weights capacity/(1+live).
	var (
		up    []int
		wts   []float64
		total float64
	)
	for k, n := range hosts {
		if r.down[n] || r.health[n].state == Quarantined {
			continue
		}
		w := float64(r.cap[movie][k]) / float64(1+r.live[n])
		up = append(up, n)
		wts = append(wts, w)
		total += w
	}
	if len(up) == 0 {
		r.stats.Sheds++
		return Decision{}, fmt.Errorf("%w: %q", ErrUnavailable, movie)
	}
	choice := up[r.drawLocked(wts, total)]
	d := Decision{Node: r.ids[choice], Failover: r.down[hosts[0]]}
	r.live[choice]++
	r.stats.Routed++
	if d.Failover {
		r.stats.Failovers++
	}
	return d, nil
}

// drawLocked picks an index into wts with probability proportional to
// its weight; total is the weights' sum. Every multi-candidate decision
// consumes exactly one Float64 and a single candidate none, which keeps
// the stream aligned across runs regardless of single-host movies in
// between.
func (r *Router) drawLocked(wts []float64, total float64) int {
	last := len(wts) - 1
	if last == 0 {
		return 0
	}
	u := r.rng.Float64() * total
	for k, w := range wts[:last] {
		if u < w {
			return k
		}
		u -= w
	}
	return last
}

// Done releases one in-flight request previously routed to the node.
func (r *Router) Done(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.node[node]; ok && r.live[i] > 0 {
		r.live[i]--
	}
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// --- live control plane extensions -----------------------------------
//
// The methods below let a controller rebalance the catalog while
// traffic flows: replicas are added and removed atomically under the
// router's lock, so every Route call sees either the old or the new
// replica set, never a partial one; and RouteLoad is the capacity-aware
// routing used by the churn simulator, which distinguishes "every host
// down" from "hosts up but saturated" so shedding can be typed.

// ErrSaturated reports a routing request whose every live replica host
// is at its stream capacity; the request is shed (typed ShedSaturated).
var ErrSaturated = errors.New("cluster: every live replica host is saturated")

// AddReplica atomically adds a live replica of the movie on the node
// with placed stream capacity n. New flows start landing on it with the
// very next Route/RouteLoad call — the "atomic flow switch" a completed
// migration performs.
func (r *Router) AddReplica(movie, node string, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	hosts, ok := r.host[movie]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	if n < 1 {
		return fmt.Errorf("%w: replica capacity %d", ErrBadCluster, n)
	}
	for _, h := range hosts {
		if h == i {
			return fmt.Errorf("%w: movie %q already has a replica on node %q", ErrBadCluster, movie, node)
		}
	}
	r.host[movie] = append(hosts, i)
	r.cap[movie] = append(r.cap[movie], n)
	return nil
}

// RemoveReplica atomically removes the movie's replica on the node.
// The primary (the first host) and the last remaining replica cannot be
// removed; viewers already streaming from the removed replica play out
// (their Release still balances the books).
func (r *Router) RemoveReplica(movie, node string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	hosts, ok := r.host[movie]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	for k, h := range hosts {
		if h != i {
			continue
		}
		if k == 0 {
			return fmt.Errorf("%w: cannot remove the primary replica of %q", ErrBadCluster, movie)
		}
		r.host[movie] = append(hosts[:k:k], hosts[k+1:]...)
		caps := r.cap[movie]
		r.cap[movie] = append(caps[:k:k], caps[k+1:]...)
		return nil
	}
	return fmt.Errorf("%w: movie %q has no replica on node %q", ErrBadCluster, movie, node)
}

// EvacuateReplica removes the movie's replica on the node like
// RemoveReplica, but for the drain half of a controller evacuation: it
// may remove the primary (the next replica is promoted), and it refuses
// — the availability guard — only when no other up, non-quarantined
// replica would remain to route to. Viewers already streaming from the
// evacuated replica play out.
func (r *Router) EvacuateReplica(movie, node string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	hosts, ok := r.host[movie]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	at := -1
	routable := 0
	for k, h := range hosts {
		if h == i {
			at = k
			continue
		}
		if !r.down[h] && r.health[h].state != Quarantined {
			routable++
		}
	}
	switch {
	case at < 0:
		return fmt.Errorf("%w: movie %q has no replica on node %q", ErrBadCluster, movie, node)
	case routable == 0:
		return fmt.Errorf("%w: evacuating %q off %q would strand it", ErrUnavailable, movie, node)
	}
	r.host[movie] = append(hosts[:at:at], hosts[at+1:]...)
	caps := r.cap[movie]
	r.cap[movie] = append(caps[:at:at], caps[at+1:]...)
	return nil
}

// Replicas reports the movie's current replica count.
func (r *Router) Replicas(movie string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.host[movie])
}

// IsDown reports whether the node is currently marked down.
func (r *Router) IsDown(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	return ok && r.down[i]
}

// Load reports the cluster's live stream load against its total
// capacity (down nodes excluded from capacity).
func (r *Router) Load() (live, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ids {
		live += r.live[i]
		if !r.down[i] {
			capacity += r.maxStreams[i]
		}
	}
	return live, capacity
}

// NodeLoad reports one node's live streams and capacity.
func (r *Router) NodeLoad(node string) (live, capacity int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return 0, 0, fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	return r.live[i], r.maxStreams[i], nil
}

// LoadDecision is RouteLoad's outcome: the serving node, whether the
// primary was down (failover), the chosen replica's placed stream
// capacity, and the replica's live viewer count including this one —
// the inputs of the contention-aware hit model.
type LoadDecision struct {
	Node     string
	Failover bool
	AllocN   int
	Live     int
}

// RouteLoad picks a node for one request like Route, but additionally
// respects node stream capacities (a host at capacity drops out of the
// draw) and tracks per-replica live load. Typed failures: every host
// down → ErrUnavailable; some host up but all at capacity →
// ErrSaturated. Call Release(movie, node) when the viewer departs.
func (r *Router) RouteLoad(movie string) (LoadDecision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hosts, ok := r.host[movie]
	if !ok {
		return LoadDecision{}, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	var (
		up    []int // indexes into hosts
		wts   []float64
		total float64
		alive bool
	)
	for k, n := range hosts {
		// A Quarantined host is deliberately out of service: it neither
		// takes traffic nor counts as alive (shedding with no routable
		// host is typed ErrUnavailable, not ErrSaturated).
		if r.down[n] || r.health[n].state == Quarantined {
			continue
		}
		alive = true
		if r.maxStreams[n] > 0 && r.live[n] >= r.maxStreams[n] {
			continue
		}
		w := float64(r.cap[movie][k]) / float64(1+r.live[n])
		up = append(up, k)
		wts = append(wts, w)
		total += w
	}
	if len(up) == 0 {
		r.stats.Sheds++
		if alive {
			return LoadDecision{}, fmt.Errorf("%w: %q", ErrSaturated, movie)
		}
		return LoadDecision{}, fmt.Errorf("%w: %q", ErrUnavailable, movie)
	}
	choice := up[r.drawLocked(wts, total)]
	node := hosts[choice]
	r.live[node]++
	if r.diskLive != nil {
		r.diskLive[node][r.pickDiskLocked(node)]++
	}
	key := movie + "\x00" + r.ids[node]
	r.liveBy[key]++
	r.stats.Routed++
	d := LoadDecision{
		Node:     r.ids[node],
		Failover: r.down[hosts[0]],
		AllocN:   r.cap[movie][choice],
		Live:     r.liveBy[key],
	}
	if d.Failover {
		r.stats.Failovers++
	}
	return d, nil
}

// Release balances one RouteLoad: the viewer routed to the movie's
// replica on the node has departed. On a gray-armed router the stream
// is drained from the node's most-loaded disk; callers that know the
// serving disk (the churn DES) use ReleaseDisk instead.
func (r *Router) Release(movie, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if ok && r.diskLive != nil {
		r.releaseDiskLocked(i, r.fullestDiskLocked(i))
	}
	r.releaseLocked(movie, node)
}

// ReleaseDisk balances one RouteGray: the viewer served from the given
// disk of the node has departed.
func (r *Router) ReleaseDisk(movie, node string, disk int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.node[node]; ok {
		r.releaseDiskLocked(i, disk)
	}
	r.releaseLocked(movie, node)
}

func (r *Router) releaseLocked(movie, node string) {
	if i, ok := r.node[node]; ok && r.live[i] > 0 {
		r.live[i]--
	}
	key := movie + "\x00" + node
	if r.liveBy[key] > 0 {
		r.liveBy[key]--
	}
}

func (r *Router) releaseDiskLocked(i, disk int) {
	if r.diskLive == nil || disk < 0 || disk >= len(r.diskLive[i]) {
		return
	}
	if r.diskLive[i][disk] > 0 {
		r.diskLive[i][disk]--
	}
}

// fullestDiskLocked is the node's most-loaded disk (lowest index wins
// ties) — where a disk-blind Release drains from.
func (r *Router) fullestDiskLocked(i int) int {
	best, bestLive := 0, -1
	for d, l := range r.diskLive[i] {
		if l > bestLive {
			best, bestLive = d, l
		}
	}
	return best
}

// digest folds the router's mutable state into h (a 64-bit FNV-1a
// accumulator) for checkpoint verification: live loads, down flags and
// the replica topology. Deterministic iteration order throughout.
func (r *Router) digest(h func(uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ids {
		h(uint64(r.live[i]))
		if r.down[i] {
			h(1)
		} else {
			h(0)
		}
	}
	movies := make([]string, 0, len(r.host))
	for m := range r.host {
		movies = append(movies, m)
	}
	sort.Strings(movies)
	for _, m := range movies {
		h(uint64(len(r.host[m])))
		for k, n := range r.host[m] {
			h(uint64(n))
			h(uint64(r.cap[m][k]))
			h(uint64(r.liveBy[m+"\x00"+r.ids[n]]))
		}
	}
	h(r.stats.Routed)
	h(r.stats.Failovers)
	h(r.stats.Sheds)
	r.grayDigest(h)
}

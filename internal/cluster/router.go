package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// RouterStats counts a router's outcomes.
type RouterStats struct {
	// Routed counts requests handed to a node.
	Routed uint64
	// Failovers counts routed requests whose primary host was down.
	Failovers uint64
	// Sheds counts requests with no routable replica host: every host
	// down or quarantined, or the rest at capacity.
	Sheds uint64
}

// Router spreads requests for a placed catalog over replica hosts. The
// choice is weighted by each host's placed stream capacity divided by
// its live load (so bigger allocations and idler nodes attract more
// requests), drawn from a seeded generator: a fixed seed and call
// sequence reproduce the same decisions exactly. When a host is marked
// down or reaches its stream budget its replicas drop out of the draw;
// requests whose primary is down but some replica is routable fail
// over, and requests with no routable host are shed with a typed error.
type Router struct {
	mu   sync.Mutex
	rng  *rand.Rand
	ids  []string       // node index → ID
	node map[string]int // node ID → index
	down []bool
	live []int // in-flight requests per node

	// The replica table: the cluster's one record of where every placed
	// movie's copies live, which the controller and the churn engine
	// read under mu. Movies are numbered in sorted-name order (the
	// digest's order). replicas[m] lists movie m's copies in replica
	// order, the primary first. liveBy[m*len(ids)+i] counts movie m's
	// in-flight viewers on node i; it outlives the replica, so a viewer
	// on a removed copy still releases against it and a re-added copy
	// resumes the count.
	movie    map[string]int // movie name → index
	names    []string       // movie index → name
	replicas [][]replica
	liveBy   []int

	// maxStreams is each node's stream capacity: a host whose live load
	// has reached it drops out of the draw (see nodeFullLocked).
	maxStreams []int

	stats RouterStats

	// Gray-failure resilience (see health.go): per-node latency trackers
	// and quarantine states, the routing policy, and the global observed-
	// wait window that sets the hedging deadline. A Quarantined node is
	// excluded from RouteLoad as well as RouteGray.
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

// replica is one placed copy of a movie: its host node's index and the
// streams pre-allocated to it there.
type replica struct{ node, n int }

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
		down:       make([]bool, len(p.Nodes)),
		live:       make([]int, len(p.Nodes)),
		movie:      make(map[string]int),
		maxStreams: make([]int, len(p.Nodes)),
	}
	r.health = make([]nodeHealth, len(p.Nodes))
	r.disks = make([]int, len(p.Nodes))
	for i, n := range p.Nodes {
		r.ids[i] = n.ID
		r.node[n.ID] = i
		r.maxStreams[i] = n.MaxStreams
		r.disks[i] = n.disks()
	}
	for _, a := range p.Assignments {
		r.names = append(r.names, a.Movie)
	}
	slices.Sort(r.names)
	r.names = slices.Compact(r.names)
	r.replicas = make([][]replica, len(r.names))
	r.liveBy = make([]int, len(r.names)*len(p.Nodes))
	for m, name := range r.names {
		r.movie[name] = m
		for _, a := range p.Replicas(name) {
			r.replicas[m] = append(r.replicas[m], replica{node: r.node[a.Node], n: a.N})
		}
	}
	return r, nil
}

// viewers is movie m's live-viewer count on node i. Lock held.
func (r *Router) viewers(m, i int) *int { return &r.liveBy[m*len(r.ids)+i] }

// replicaAt is node i's position among movie m's replicas, or -1 when
// the node hosts none. Lock held.
func (r *Router) replicaAt(m, i int) int {
	for k, rep := range r.replicas[m] {
		if rep.node == i {
			return k
		}
	}
	return -1
}

// routableLocked reports whether node i can serve at all: up and not
// quarantined. Lock held.
func (r *Router) routableLocked(i int) bool {
	return !r.down[i] && r.health[i].state != Quarantined
}

// replicaArgs resolves the (movie, node) pair of a replica operation:
// an unknown node is an ErrBadCluster, an unknown movie ErrUnknownMovie.
func (r *Router) replicaArgs(movie, node string) (m, i int, err error) {
	i, ok := r.node[node]
	if !ok {
		return 0, 0, fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	m, ok = r.movie[movie]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	return m, i, nil
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

// candidatesLocked is the one replica selection behind RouteLoad and
// RouteGray. It collects the movie's routable hosts — up, not
// quarantined and not full — weighted by placed streams over 1 + live
// load, times the health score squared unless the policy is blind.
// Probation hosts serve only as a fallback when nothing healthier is
// routable. It returns indexes into the movie's replicas, their
// weights and the weights' sum; with no candidate it counts a shed and returns
// ErrSaturated when some host is alive but full, ErrUnavailable
// otherwise.
func (r *Router) candidatesLocked(m int) (up []int, wts []float64, total float64, err error) {
	var (
		upP   []int
		wtsP  []float64
		totP  float64
		alive bool
	)
	for k, rep := range r.replicas[m] {
		n := rep.node
		// A Quarantined host is deliberately out of service: it neither
		// takes traffic nor counts as alive (shedding with no routable
		// host is typed ErrUnavailable, not ErrSaturated).
		if !r.routableLocked(n) {
			continue
		}
		alive = true
		if r.nodeFullLocked(n) {
			continue
		}
		w := float64(rep.n) / float64(1+r.live[n])
		if r.policy != PolicyBlind {
			s := r.scoreLocked(n)
			w *= s * s
		}
		if r.health[n].state == Probation {
			upP = append(upP, k)
			wtsP = append(wtsP, w)
			totP += w
			continue
		}
		up = append(up, k)
		wts = append(wts, w)
		total += w
	}
	if len(up) == 0 {
		up, wts, total = upP, wtsP, totP
	}
	if len(up) == 0 {
		r.stats.Sheds++
		if alive {
			return nil, nil, 0, fmt.Errorf("%w: %q", ErrSaturated, r.names[m])
		}
		return nil, nil, 0, fmt.Errorf("%w: %q", ErrUnavailable, r.names[m])
	}
	return up, wts, total, nil
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
// router's lock, so every routing call sees either the old or the new
// replica set, never a partial one.

// ErrSaturated reports a routing request whose every live replica host
// is at its stream capacity; the request is shed (typed ShedSaturated).
var ErrSaturated = errors.New("cluster: every live replica host is saturated")

// AddReplica atomically adds a live replica of the movie on the node
// with placed stream capacity n. New flows start landing on it with the
// very next RouteLoad/RouteGray call — the "atomic flow switch" a completed
// migration performs.
func (r *Router) AddReplica(movie, node string, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, i, err := r.replicaArgs(movie, node)
	switch {
	case err != nil:
		return err
	case n < 1:
		return fmt.Errorf("%w: replica capacity %d", ErrBadCluster, n)
	case r.replicaAt(m, i) >= 0:
		return fmt.Errorf("%w: movie %q already has a replica on node %q", ErrBadCluster, movie, node)
	}
	r.replicas[m] = append(r.replicas[m], replica{node: i, n: n})
	return nil
}

// RemoveReplica atomically removes the movie's replica on the node.
// The primary (the first host) and the last remaining replica cannot be
// removed; viewers already streaming from the removed replica play out
// (their Release still balances the books).
func (r *Router) RemoveReplica(movie, node string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, i, err := r.replicaArgs(movie, node)
	if err != nil {
		return err
	}
	switch k := r.replicaAt(m, i); k {
	case -1:
		return fmt.Errorf("%w: movie %q has no replica on node %q", ErrBadCluster, movie, node)
	case 0:
		return fmt.Errorf("%w: cannot remove the primary replica of %q", ErrBadCluster, movie)
	default:
		r.replicas[m] = slices.Delete(r.replicas[m], k, k+1)
		return nil
	}
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
	m, i, err := r.replicaArgs(movie, node)
	if err != nil {
		return err
	}
	at, routable := -1, 0
	for k, rep := range r.replicas[m] {
		if rep.node == i {
			at = k
		} else if r.routableLocked(rep.node) {
			routable++
		}
	}
	switch {
	case at < 0:
		return fmt.Errorf("%w: movie %q has no replica on node %q", ErrBadCluster, movie, node)
	case routable == 0:
		return fmt.Errorf("%w: evacuating %q off %q would strand it", ErrUnavailable, movie, node)
	}
	r.replicas[m] = slices.Delete(r.replicas[m], at, at+1)
	return nil
}

// dropNewestLocked removes movie m's newest replica — the controller's
// drop, made only while the movie has more than one, so never the
// primary — and returns its node. Lock held.
func (r *Router) dropNewestLocked(m int) int {
	reps := r.replicas[m]
	r.replicas[m] = reps[:len(reps)-1]
	return reps[len(reps)-1].node
}

// Replicas reports the movie's current replica count.
func (r *Router) Replicas(movie string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.movie[movie]
	if !ok {
		return 0
	}
	return len(r.replicas[m])
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
	return r.loadLocked()
}

func (r *Router) loadLocked() (live, capacity int) {
	for i := range r.ids {
		live += r.live[i]
		if !r.down[i] {
			capacity += r.maxStreams[i]
		}
	}
	return live, capacity
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

// RouteLoad picks a node for one request of the movie by the router's
// replica selection (candidatesLocked) and one weighted draw, and books
// it there. It tracks per-replica live load; typed failures: every host
// down → ErrUnavailable; some host up but all at capacity →
// ErrSaturated. RouteGray adds wait measurement, probation probes and
// hedging on top of the same selection. Call Release(movie, node) when
// the viewer departs.
func (r *Router) RouteLoad(movie string) (LoadDecision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.movie[movie]
	if !ok {
		return LoadDecision{}, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	up, wts, total, err := r.candidatesLocked(m)
	if err != nil {
		return LoadDecision{}, err
	}
	d, _, _ := r.commitLocked(m, up[r.drawLocked(wts, total)])
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
	if !ok {
		return
	}
	if r.diskLive != nil {
		r.releaseDiskLocked(i, r.fullestDiskLocked(i))
	}
	r.releaseLocked(movie, i)
}

// ReleaseDisk balances one RouteGray: the viewer served from the given
// disk of the node has departed.
func (r *Router) ReleaseDisk(movie, node string, disk int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return
	}
	r.releaseDiskLocked(i, disk)
	r.releaseLocked(movie, i)
}

// releaseLocked drains one stream off node i and, when the movie is
// placed, one viewer off its (movie, node) count.
func (r *Router) releaseLocked(movie string, i int) {
	if r.live[i] > 0 {
		r.live[i]--
	}
	if m, ok := r.movie[movie]; ok {
		if v := r.viewers(m, i); *v > 0 {
			*v--
		}
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
// the replica table, movies in name order.
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
	for m, reps := range r.replicas {
		h(uint64(len(reps)))
		for _, rep := range reps {
			h(uint64(rep.node))
			h(uint64(rep.n))
			h(uint64(*r.viewers(m, rep.node)))
		}
	}
	h(r.stats.Routed)
	h(r.stats.Failovers)
	h(r.stats.Sheds)
	r.grayDigest(h)
}

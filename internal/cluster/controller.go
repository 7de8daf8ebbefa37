package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"vodalloc/internal/workload"
)

// The live control plane: a Controller watches per-node load and
// per-movie demand while a churn simulation runs, and incrementally
// re-solves the placement — adding replicas of hot movies on idle
// nodes, dropping replicas of cold ones — under an explicit migration
// budget (total bytes moved, concurrent transfers). It never re-packs
// the cluster wholesale: every action is one replica move, executed as
// a DES event whose completion atomically switches the router's flows.
// When the budget is exhausted or the nodes saturate, the controller
// degrades gracefully through a typed shedding ladder instead of
// failing: first the cold tail of the catalog is shed to protect the
// hot set, then everything but the head.

// ShedReason types one shed request, so "why did we turn viewers away"
// is measurable per cause.
type ShedReason int

// The shedding tiers, mildest first.
const (
	// ShedNoReplica: every replica host of the movie was down.
	ShedNoReplica ShedReason = iota
	// ShedSaturated: hosts were up but every one was at stream capacity.
	ShedSaturated
	// ShedDegraded: the degradation ladder proactively shed the request
	// to protect hotter titles.
	ShedDegraded
)

// String names the reason.
func (s ShedReason) String() string {
	switch s {
	case ShedNoReplica:
		return "no-replica"
	case ShedSaturated:
		return "saturated"
	case ShedDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("shed(%d)", int(s))
	}
}

// DegradeLevel is the controller's graceful-degradation rung.
type DegradeLevel int

// The degradation ladder.
const (
	// DegradeNone: all titles admitted.
	DegradeNone DegradeLevel = iota
	// DegradeCold: the cold tail (titles beyond the top 90% of observed
	// demand share) is shed.
	DegradeCold
	// DegradeHotOnly: only the head (titles within the top 50% of
	// observed demand share) is admitted.
	DegradeHotOnly
)

// String names the level.
func (d DegradeLevel) String() string {
	switch d {
	case DegradeNone:
		return "none"
	case DegradeCold:
		return "shed-cold"
	case DegradeHotOnly:
		return "hot-only"
	default:
		return fmt.Sprintf("level(%d)", int(d))
	}
}

// admitShare is the cumulative observed-demand share admitted at each
// degradation level.
func (d DegradeLevel) admitShare() float64 {
	switch d {
	case DegradeCold:
		return 0.90
	case DegradeHotOnly:
		return 0.50
	default:
		return 1
	}
}

// The control loop's fixed tuning.
const (
	// migrationRate is one transfer's throughput, bytes per simulated
	// minute (≈ 50 MB/s).
	migrationRate = 3e9
	// bytesPerMinute converts movie length to copy size (≈ a 6 Mbit/s
	// encode).
	bytesPerMinute = 45e6
	// targetUtil is the per-replica stream utilization the controller
	// sizes replica counts for.
	targetUtil = 0.7
	// dropUtil is the hysteresis floor: a replica is only dropped when
	// the survivors would still sit below this utilization. It must be
	// below targetUtil for the loop to have a fixed point.
	dropUtil = 0.45
	// degradeAt / restoreAt are the cluster live-utilization thresholds
	// for climbing / descending the degradation ladder; descent requires
	// restoreTicks consecutive calm ticks. restoreAt is
	// math.Min(0.75, 0.8*degradeAt) evaluated in float64, whose product
	// rounds above the exact 0.736.
	degradeAt    = 0.92
	restoreAt    = 0.7360000000000001
	restoreTicks = 2
	// alpha and alphaSlow smooth the observed arrival rates. The fast
	// estimate drives replica adds, so a flash crowd registers within a
	// tick or two; drops require the SLOW estimate to agree, so Poisson
	// noise in a single window cannot tear down a replica the next tick
	// re-adds — the dual-rate split is what keeps the loop
	// oscillation-free on a noisy but stationary workload.
	alpha, alphaSlow = 0.3, 0.05
)

// ControllerConfig tunes the control loop. The zero value of any field
// selects its default.
type ControllerConfig struct {
	// Interval is the control-tick period, simulated minutes (default 15).
	Interval float64
	// BudgetBytes caps the total bytes migrated over the run
	// (0 = unlimited). Started migrations count even if later aborted.
	BudgetBytes float64
	// MaxConcurrent caps simultaneous migrations (default 2).
	MaxConcurrent int
	// Cooldown is the minimum time between actions on one movie
	// (default 2·Interval).
	Cooldown float64
	// EvacuateDwell arms proactive evacuation: a node stuck in
	// Quarantine longer than this many simulated minutes gets its
	// replicas drained — each is copied to a healthy node (charged
	// against the byte budget like any migration) and the quarantined
	// copy is dropped when the new one lands, guarded so the last
	// routable replica of a movie is never evacuated. 0 (the default)
	// disables evacuation. Must be shorter than the health machine's
	// probationAfter dwell (30 minutes) to ever fire — past that the
	// node exits Quarantine into Probation on its own.
	EvacuateDwell float64
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = 15
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
	return c
}

// Validate rejects non-finite or negative tuning.
func (c ControllerConfig) Validate() error {
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"interval", c.Interval}, {"budget", c.BudgetBytes},
		{"cooldown", c.Cooldown}, {"evacuate dwell", c.EvacuateDwell},
	} {
		if v.v < 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("%w: controller %s %v", ErrBadCluster, v.name, v.v)
		}
	}
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("%w: controller max concurrent %d", ErrBadCluster, c.MaxConcurrent)
	}
	return nil
}

// Migration is one in-flight replica copy: Bytes move from the source
// replica on From to the new replica on To between Start and Done; at
// Done the router switches flows to include the new replica. A
// non-empty Drain marks an evacuation: once the new replica lands, the
// copy on Drain is dropped (guarded — never the movie's last routable
// replica).
type Migration struct {
	Movie    string
	From, To string
	Drain    string
	N        int
	B        float64
	Bytes    float64
	Start    float64
	Done     float64
}

// ControllerStats counts the controller's lifetime activity.
type ControllerStats struct {
	// ReplicaAdds / ReplicaDrops are completed placement changes.
	ReplicaAdds, ReplicaDrops int
	// MigrationsStarted / Completed / Aborted partition every transfer.
	MigrationsStarted, MigrationsCompleted, MigrationsAborted int
	// SpentBytes is the total migration bytes charged against the
	// budget (aborted transfers stay charged — the bytes moved).
	SpentBytes float64
	// BudgetExhausted reports that at least one wanted move was blocked
	// by the byte budget.
	BudgetExhausted bool
	// Evacuations / EvacuationsCompleted count evacuation migrations
	// started and fully landed (copy done AND quarantined replica
	// dropped); EvacuationsBlocked counts drains the availability guard
	// refused — the copy landed but the quarantined replica stayed.
	Evacuations, EvacuationsCompleted, EvacuationsBlocked int
	// Level and PeakLevel are the current and worst degradation rungs.
	Level, PeakLevel DegradeLevel
	// LastMoveAt is the time of the most recent started migration or
	// drop (-1 before any).
	LastMoveAt float64
}

// Controller is the online rebalancer. It is driven synchronously by
// the churn DES — ObserveArrival on every arrival, Tick on the control
// cadence, Complete when a migration's transfer finishes — and is not
// itself goroutine-safe (the DES is single-threaded by construction).
// The replica topology and the node down flags are the router's: the
// controller reads them under the router's lock and changes them only
// through the router. Its own per-movie state is indexed by catalog
// position.
type Controller struct {
	cfg    ControllerConfig
	router *Router
	movies []workload.Movie
	nodes  []NodeSpec
	// rix maps catalog position to the router's movie index.
	rix []int

	// alloc is each movie's per-copy (N, B) demand, from its primary
	// placement assignment; new replicas are sized identically.
	alloc []MovieAlloc
	used  []nodeUse

	win      []uint64  // arrivals per movie since the last tick
	ewma     []float64 // fast-smoothed arrival rate per movie (adds)
	ewmaSlow []float64 // slow-smoothed arrival rate per movie (drops)
	haveRate bool

	inflight   []flight
	pendingTo  []int     // per movie: migrations in flight
	lastAction []float64 // per movie: time of the last move (0 = none)

	admit     []bool
	calm      int
	quiet     int // consecutive ticks with no started/dropped move
	stats     ControllerStats
	budgetCap float64
}

// nodeUse is a node's committed load: placed replicas plus in-flight
// migration reservations.
type nodeUse struct {
	streams int
	buffer  float64
}

// flight is one in-flight migration with its movie's catalog position
// and its destination and drain node indexes (drain -1 for a demand
// add).
type flight struct {
	Migration
	movie, to, drain int
}

// NewController builds a controller over the deployed placement. The
// router must have been built from the same placement.
func NewController(cfg ControllerConfig, p Placement, movies []workload.Movie, r *Router) (*Controller, error) {
	return newController(cfg, p, movies, r, primaryAllocs(p, movies))
}

// primaryAllocs is each catalog movie's primary (replica 0) allocation,
// by catalog position; a movie without one reads as the zero value.
func primaryAllocs(p Placement, movies []workload.Movie) []MovieAlloc {
	at := make(map[string]int, len(movies))
	for i, m := range movies {
		at[m.Name] = i
	}
	out := make([]MovieAlloc, len(movies))
	for _, a := range p.Assignments {
		if i, ok := at[a.Movie]; ok && a.Replica == 0 {
			out[i] = a.MovieAlloc
		}
	}
	return out
}

// newController is NewController over primary allocations the caller
// already derived (the churn engine shares its slice).
func newController(cfg ControllerConfig, p Placement, movies []workload.Movie, r *Router, alloc []MovieAlloc) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfgD := cfg.withDefaults()
	c := &Controller{
		cfg:        cfgD,
		router:     r,
		movies:     movies,
		nodes:      p.Nodes,
		rix:        make([]int, len(movies)),
		alloc:      alloc,
		win:        make([]uint64, len(movies)),
		ewma:       make([]float64, len(movies)),
		ewmaSlow:   make([]float64, len(movies)),
		pendingTo:  make([]int, len(movies)),
		lastAction: make([]float64, len(movies)),
		admit:      make([]bool, len(movies)),
		budgetCap:  cfgD.BudgetBytes,
	}
	c.stats.LastMoveAt = -1
	// The controller indexes nodes and movies as the router's table does.
	if !slices.EqualFunc(p.Nodes, r.ids, func(n NodeSpec, id string) bool { return n.ID == id }) {
		return nil, fmt.Errorf("%w: router built over other nodes", ErrBadCluster)
	}
	c.used = make([]nodeUse, len(p.Nodes))
	for _, a := range p.Assignments {
		i := r.node[a.Node]
		c.used[i].streams += a.N
		c.used[i].buffer += a.B
	}
	for i, m := range movies {
		rm, placed := r.movie[m.Name]
		if alloc[i].Movie != m.Name || !placed {
			return nil, fmt.Errorf("%w: movie %q not in placement", ErrBadCluster, m.Name)
		}
		c.rix[i] = rm
		c.admit[i] = true
	}
	return c, nil
}

// ObserveArrival records one arrival of movie i (by catalog index) for
// the demand estimator.
func (c *Controller) ObserveArrival(i int) { c.win[i]++ }

// Admit reports whether the current degradation level admits movie i.
// A false return is a typed ShedDegraded decision.
func (c *Controller) Admit(i int) bool { return c.admit[i] }

// Level returns the current degradation rung.
func (c *Controller) Level() DegradeLevel { return c.stats.Level }

// Stats returns the lifetime counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// InFlight reports the number of active migrations.
func (c *Controller) InFlight() int { return len(c.inflight) }

// QuietTicks reports how many consecutive ticks made no move.
func (c *Controller) QuietTicks() int { return c.quiet }

// SetNodeDown aborts the migrations touching a node that went down
// (their bytes stay charged; the copy is abandoned) and returns them.
// The down flag itself is the router's (Router.SetNodeDown); a node
// coming back up aborts nothing.
func (c *Controller) SetNodeDown(node string, isDown bool) []Migration {
	if !isDown {
		return nil
	}
	var aborted []Migration
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.From == node || f.To == node {
			aborted = append(aborted, f.Migration)
			c.used[f.to].streams -= f.N
			c.used[f.to].buffer -= f.B
			c.pendingTo[f.movie]--
			c.stats.MigrationsAborted++
			continue
		}
		kept = append(kept, f)
	}
	c.inflight = kept
	return aborted
}

// Complete lands a finished migration: the destination replica goes
// live and the router atomically switches flows onto it. An evacuation
// (Drain set) then drops the quarantined copy — unless the guard finds
// no other routable replica, in which case the copy stays and the
// evacuation counts as blocked. A migration aborted earlier (node
// outage) is no longer tracked and is ignored.
func (c *Controller) Complete(m Migration) error {
	for k, f := range c.inflight {
		if f.Migration != m {
			continue
		}
		c.inflight = append(c.inflight[:k:k], c.inflight[k+1:]...)
		c.pendingTo[f.movie]--
		c.stats.MigrationsCompleted++
		c.stats.ReplicaAdds++
		if err := c.router.AddReplica(m.Movie, m.To, m.N); err != nil {
			return err
		}
		if f.drain < 0 {
			return nil
		}
		if c.router.EvacuateReplica(m.Movie, m.Drain) != nil {
			c.stats.EvacuationsBlocked++
			return nil
		}
		c.used[f.drain].streams -= m.N
		c.used[f.drain].buffer -= m.B
		c.stats.EvacuationsCompleted++
		return nil
	}
	return nil
}

// Tick runs one control decision at time now: refresh demand estimates,
// start replica migrations for under-provisioned movies (budget and
// concurrency permitting), drop replicas of over-provisioned ones, and
// move the degradation ladder. The returned migrations have been
// started; the caller owns scheduling Complete at each one's Done time.
// The whole decision runs under the router's lock, against one view of
// its replica table.
func (c *Controller) Tick(now float64) []Migration {
	r := c.router
	r.mu.Lock()
	defer r.mu.Unlock()

	// 1. Demand estimate: dual-rate EWMA of the per-tick observed rates
	// — fast for adds, slow for drops.
	for i := range c.movies {
		obs := float64(c.win[i]) / c.cfg.Interval
		c.win[i] = 0
		if !c.haveRate {
			c.ewma[i] = obs
			c.ewmaSlow[i] = obs
		} else {
			c.ewma[i] = alpha*obs + (1-alpha)*c.ewma[i]
			c.ewmaSlow[i] = alphaSlow*obs + (1-alphaSlow)*c.ewmaSlow[i]
		}
	}
	c.haveRate = true

	moved := false
	var started []Migration

	// 2. Proactive evacuation: a node stuck in Quarantine past the
	// configured dwell gets its replicas drained in descending demand
	// order — EWMA rate × movie length, the expected concurrent viewers
	// stranded on the dead copy — so when the byte budget or the
	// concurrency cap cuts the evacuation short, the replicas that
	// relieve the most demand have already moved. Catalog index breaks
	// ties deterministically (the same pattern as step 3's pressure
	// sort). Each drain is an ordinary budget-charged migration whose
	// Complete additionally drops the quarantined copy (guarded).
	// Evacuations compete with demand adds for the same concurrency
	// slots and byte budget; they run first because a quarantined node's
	// replicas serve nothing at all.
	if c.cfg.EvacuateDwell > 0 {
	evac:
		for i := range c.nodes {
			if r.down[i] {
				continue
			}
			st, _, since := r.healthLocked(i)
			if st != Quarantined || now-since < c.cfg.EvacuateDwell {
				continue
			}
			type cand struct {
				idx    int
				demand float64
			}
			var cands []cand
			for j, m := range c.movies {
				if r.replicaAt(c.rix[j], i) >= 0 {
					cands = append(cands, cand{idx: j, demand: c.ewma[j] * m.Length})
				}
			}
			sort.SliceStable(cands, func(a, b int) bool {
				if cands[a].demand != cands[b].demand {
					return cands[a].demand > cands[b].demand
				}
				return cands[a].idx < cands[b].idx
			})
			for _, cd := range cands {
				if len(c.inflight) >= c.cfg.MaxConcurrent {
					break evac
				}
				if c.pendingTo[cd.idx] > 0 {
					continue
				}
				if mig, ok := c.startLocked(now, cd.idx, i); ok {
					started = append(started, mig)
					moved = true
				}
			}
		}
	}

	// 3. Replica sizing per movie: Little's law concurrency estimate
	// against the per-copy stream allocation. Only up replicas count as
	// serving capacity — a replica on a downed node relieves nothing.
	type want struct {
		idx      int
		pressure float64
	}
	var wants []want
	for i, m := range c.movies {
		total, up := c.replicasLocked(i)
		cur := up + c.pendingTo[i]
		if cur == 0 {
			continue // every host down and nothing in flight: no source to copy from
		}
		load := c.ewma[i] * m.Length // expected concurrent viewers
		perReplica := load / float64(cur*c.alloc[i].N)
		if perReplica > targetUtil && total+c.pendingTo[i] < len(c.nodes) {
			wants = append(wants, want{idx: i, pressure: perReplica})
		}
	}
	// Hottest pressure first; index tie-break keeps it deterministic.
	sort.SliceStable(wants, func(a, b int) bool {
		if wants[a].pressure != wants[b].pressure {
			return wants[a].pressure > wants[b].pressure
		}
		return wants[a].idx < wants[b].idx
	})

	for _, w := range wants {
		if len(c.inflight) >= c.cfg.MaxConcurrent {
			break
		}
		if mig, ok := c.startLocked(now, w.idx, -1); ok {
			started = append(started, mig)
			moved = true
		}
	}

	// 4. Drops: a movie whose surviving replicas would still sit below
	// dropUtil sheds its newest replica. Free (no bytes move), but three
	// guards rule out add/drop churn: the dropUtil < targetUtil
	// hysteresis gap, the per-movie cooldown, and the requirement that
	// BOTH the fast and the slow demand estimates agree the load is gone
	// — a single quiet window never tears down what the next window
	// would re-add (and re-pay for). Movies with a downed host hold
	// steady until the outage resolves.
	for i, m := range c.movies {
		cur, up := c.replicasLocked(i)
		if cur <= 1 || c.pendingTo[i] > 0 || cur != up {
			continue
		}
		if c.cooling(now, i) {
			continue
		}
		a := c.alloc[i]
		load := math.Max(c.ewma[i], c.ewmaSlow[i]) * m.Length
		if load/float64((cur-1)*a.N) >= dropUtil {
			continue
		}
		victim := r.dropNewestLocked(c.rix[i])
		c.used[victim].streams -= a.N
		c.used[victim].buffer -= a.B
		c.lastAction[i] = now
		c.stats.ReplicaDrops++
		c.stats.LastMoveAt = now
		moved = true
	}

	// 5. Degradation ladder: escalate when the cluster runs hot and
	// this tick could not relieve it with a migration; descend after
	// restoreTicks consecutive cool ticks.
	live, capacity := r.loadLocked()
	util := 0.0
	if capacity > 0 {
		util = float64(live) / float64(capacity)
	}
	switch {
	case util >= degradeAt && len(started) == 0:
		if c.stats.Level < DegradeHotOnly {
			c.stats.Level++
			if c.stats.Level > c.stats.PeakLevel {
				c.stats.PeakLevel = c.stats.Level
			}
		}
		c.calm = 0
	case util <= restoreAt:
		c.calm++
		if c.calm >= restoreTicks && c.stats.Level > DegradeNone {
			c.stats.Level--
			c.calm = 0
		}
	default:
		c.calm = 0
	}
	c.refreshAdmit()

	if moved {
		c.quiet = 0
	} else {
		c.quiet++
	}
	return started
}

// cooling reports whether movie i is still inside its cooldown after
// its last move.
func (c *Controller) cooling(now float64, i int) bool {
	return now-c.lastAction[i] < c.cfg.Cooldown && c.lastAction[i] > 0
}

// startLocked starts one replica copy of movie i — an evacuation off
// node drain, or a demand add when drain is -1 — unless the movie's
// cooldown, the byte budget or the lack of a destination or source
// rules it out. A started migration reserves its destination's
// capacity and is counted and tracked in flight. Router lock held.
func (c *Controller) startLocked(now float64, i, drain int) (Migration, bool) {
	if c.cooling(now, i) {
		return Migration{}, false
	}
	m := c.movies[i]
	bytes := m.Length * bytesPerMinute // one replica copy
	if c.budgetCap > 0 && c.stats.SpentBytes+bytes > c.budgetCap {
		c.stats.BudgetExhausted = true
		return Migration{}, false
	}
	dest := c.pickDestLocked(i)
	if dest < 0 {
		return Migration{}, false
	}
	src := c.pickSourceLocked(i)
	if src < 0 {
		return Migration{}, false
	}
	a := c.alloc[i]
	mig := Migration{
		Movie: m.Name, From: c.nodes[src].ID, To: c.nodes[dest].ID,
		N: a.N, B: a.B, Bytes: bytes,
		Start: now, Done: now + bytes/migrationRate,
	}
	if drain >= 0 {
		mig.Drain = c.nodes[drain].ID
		c.stats.Evacuations++
	}
	c.used[dest].streams += a.N
	c.used[dest].buffer += a.B
	c.inflight = append(c.inflight, flight{Migration: mig, movie: i, to: dest, drain: drain})
	c.pendingTo[i]++
	c.lastAction[i] = now
	c.stats.MigrationsStarted++
	c.stats.SpentBytes += bytes
	c.stats.LastMoveAt = now
	return mig, true
}

// refreshAdmit recomputes the per-movie admission set for the current
// level: titles are ranked by observed demand and admitted until the
// level's cumulative share is covered (every title with any share at
// level none).
func (c *Controller) refreshAdmit() {
	share := c.stats.Level.admitShare()
	if share >= 1 {
		for i := range c.admit {
			c.admit[i] = true
		}
		return
	}
	total := 0.0
	for _, r := range c.ewma {
		total += r
	}
	if total <= 0 {
		for i := range c.admit {
			c.admit[i] = true
		}
		return
	}
	order := make([]int, len(c.ewma))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if c.ewma[order[a]] != c.ewma[order[b]] {
			return c.ewma[order[a]] > c.ewma[order[b]]
		}
		return order[a] < order[b]
	})
	cum := 0.0
	for _, i := range order {
		// Admit while the running share is still below the cutoff, so
		// the head always stays and the tail sheds first.
		c.admit[i] = cum < share*total
		cum += c.ewma[i]
	}
}

// pickDestLocked chooses the destination node for a new replica of
// movie i: the feasible up-node with the lowest health-weighted
// committed stream utilization (index tie-break). Health awareness is
// twofold: a node whose state is Suspect or worse is never a
// destination, and among the healthy the utilization is divided by
// score² so a node whose latency is drifting looks fuller than its
// stream count says. On a blind router every state reads Healthy and
// every score 1, so the choice is byte-identical to the health-blind
// controller. Returns -1 when none fits. Router lock held.
func (c *Controller) pickDestLocked(i int) int {
	r := c.router
	a := c.alloc[i]
	best, bestUtil := -1, math.Inf(1)
	for n, spec := range c.nodes {
		if r.down[n] || r.replicaAt(c.rix[i], n) >= 0 || c.inbound(i, n) {
			continue
		}
		st, score, _ := r.healthLocked(n)
		if st != Healthy {
			continue
		}
		if c.used[n].streams+a.N > spec.MaxStreams ||
			c.used[n].buffer+a.B > spec.MaxBuffer+bufferSlack {
			continue
		}
		u := float64(c.used[n].streams+a.N) / float64(spec.MaxStreams)
		if score > 0 && score < 1 {
			u /= score * score
		}
		if u < bestUtil {
			best, bestUtil = n, u
		}
	}
	return best
}

// inbound reports whether a migration of movie i into node n is in
// flight.
func (c *Controller) inbound(i, n int) bool {
	for _, f := range c.inflight {
		if f.movie == i && f.to == n {
			return true
		}
	}
	return false
}

// replicasLocked counts movie i's replicas, and those on up nodes.
// Router lock held.
func (c *Controller) replicasLocked(i int) (total, up int) {
	reps := c.router.replicas[c.rix[i]]
	for _, rep := range reps {
		if !c.router.down[rep.node] {
			up++
		}
	}
	return len(reps), up
}

// pickSourceLocked chooses the copy source: the healthiest up replica
// host — highest score, with Suspect and Quarantined hosts demoted
// below any healthy one so a copy reads from a sick node only when no
// other replica exists. Strictly-better comparison keeps replica order
// as the tie-break, so on a blind router (every score 1) this is
// exactly the first up replica. Returns -1 when every host is down.
// Router lock held.
func (c *Controller) pickSourceLocked(i int) int {
	r := c.router
	best, bestKey := -1, math.Inf(-1)
	for _, rep := range r.replicas[c.rix[i]] {
		if r.down[rep.node] {
			continue
		}
		st, score, _ := r.healthLocked(rep.node)
		key := score
		switch st {
		case Suspect:
			key -= 2
		case Quarantined:
			key -= 4
		}
		if key > bestKey {
			best, bestKey = rep.node, key
		}
	}
	return best
}

// digest folds the controller's mutable state into h for checkpoint
// verification.
func (c *Controller) digest(h func(uint64)) {
	f64 := func(v float64) { h(math.Float64bits(v)) }
	h(uint64(c.stats.ReplicaAdds))
	h(uint64(c.stats.ReplicaDrops))
	h(uint64(c.stats.MigrationsStarted))
	h(uint64(c.stats.MigrationsCompleted))
	h(uint64(c.stats.MigrationsAborted))
	f64(c.stats.SpentBytes)
	h(uint64(c.stats.Level))
	h(uint64(c.stats.PeakLevel))
	f64(c.stats.LastMoveAt)
	h(uint64(c.stats.Evacuations))
	h(uint64(c.stats.EvacuationsCompleted))
	h(uint64(c.stats.EvacuationsBlocked))
	h(uint64(len(c.inflight)))
	for _, m := range c.inflight {
		f64(m.Start)
		f64(m.Done)
		if m.Drain != "" {
			h(1)
		} else {
			h(0)
		}
	}
	for i := range c.movies {
		h(c.win[i])
		f64(c.ewma[i])
		f64(c.ewmaSlow[i])
		if c.admit[i] {
			h(1)
		} else {
			h(0)
		}
	}
	for i := range c.used {
		h(uint64(c.used[i].streams))
		f64(c.used[i].buffer)
	}
	h(uint64(c.calm))
	h(uint64(c.quiet))
}

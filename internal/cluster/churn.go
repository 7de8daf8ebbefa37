package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/des"
	"vodalloc/internal/sim"
	"vodalloc/internal/workload"
)

// The churn simulator: a sequential DES over the routing layer that
// drives a time-varying workload (drifting Zipf, diurnal swing, flash
// crowds) against a live cluster, with the rebalancing Controller in
// the loop. Unlike Simulate — which measures per-node hit probability
// under a frozen placement — churn measures what viewers experience
// *while the placement moves*: availability and P(hit) during
// rebalances, typed shed counts, migration spend, and how long the
// controller takes to reconverge after a flash crowd.
//
// Arrivals are a non-homogeneous Poisson process discretized into
// piecewise-constant epochs: within an epoch each movie's gap is
// exponential at the epoch's rate, and at every boundary the pending
// gaps are re-drawn at the new rates — exact for exponential gaps by
// memorylessness. Arrival events carry their epoch index so a stale
// pre-boundary draw is dropped deterministically instead of firing at
// the wrong rate.

// ChurnConfig parameterizes a churn run.
type ChurnConfig struct {
	// Placement is the initial deployment; the controller evolves it.
	Placement Placement
	// Workload is the time-varying demand over the placed catalog.
	Workload workload.DynamicWorkload
	// Horizon and Warmup bound the run in simulated minutes;
	// measurements start at Warmup.
	Horizon, Warmup float64
	// Seed drives the arrival processes and the router draws.
	Seed int64
	// Controller tunes the rebalancer; ControllerOff freezes the
	// placement instead (the baseline the controlled run is judged
	// against).
	Controller    ControllerConfig
	ControllerOff bool
	// Faults are node outages to inject.
	Faults []NodeFault
	// Gray are gray failures — slow disks, latency jitter, brownouts —
	// to inject: the node stays up but serves late.
	Gray []GrayFault
	// Policy is the router's gray-failure posture (default PolicyBlind,
	// the pre-gray router); Health tunes the scorer, quarantine machine
	// and hedging (zero value = defaults).
	Policy RoutePolicy
	Health HealthConfig
	// StarveWait is the wait (normalized units, 1.0 = nominal service)
	// beyond which an admitted viewer counts as starved and is deducted
	// from availability (0 = 8). Only meaningful on gray runs: without
	// gray faults every wait is nominal and nothing starves.
	StarveWait float64
	// Window is the availability-floor window length, minutes (0 = 60):
	// FloorAvailability is the worst per-window availability after
	// warmup, the metric a flash crowd degrades first.
	Window float64
}

// grayActive reports whether this run exercises the gray machinery at
// all; when false the run is byte-identical to a pre-gray build.
func (c ChurnConfig) grayActive() bool {
	return len(c.Gray) > 0 || c.Policy != PolicyBlind
}

func (c ChurnConfig) starveWait() float64 {
	if c.StarveWait > 0 {
		return c.StarveWait
	}
	return 8
}

func (c ChurnConfig) window() float64 {
	if c.Window > 0 {
		return c.Window
	}
	return 60
}

// Validate checks the configuration.
func (c ChurnConfig) Validate() error {
	if err := c.Placement.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	if err := c.Controller.Validate(); err != nil {
		return err
	}
	switch {
	case !(c.Horizon > 0) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("%w: horizon %v", ErrBadCluster, c.Horizon)
	case math.IsNaN(c.Warmup) || c.Warmup < 0 || c.Warmup >= c.Horizon:
		return fmt.Errorf("%w: warmup %v outside [0, horizon)", ErrBadCluster, c.Warmup)
	case c.Window < 0 || math.IsNaN(c.Window) || math.IsInf(c.Window, 0):
		return fmt.Errorf("%w: window %v", ErrBadCluster, c.Window)
	}
	catalog := make(map[string]bool, len(c.Workload.Movies))
	for _, m := range c.Workload.Movies {
		catalog[m.Name] = true
	}
	placed := make(map[string]bool)
	for _, a := range c.Placement.Assignments {
		if !catalog[a.Movie] {
			return fmt.Errorf("%w: placed movie %q missing from catalog", ErrBadCluster, a.Movie)
		}
		placed[a.Movie] = true
	}
	for _, m := range c.Workload.Movies {
		if !placed[m.Name] {
			return fmt.Errorf("%w: catalog movie %q not placed", ErrBadCluster, m.Name)
		}
	}
	known := make(map[string]bool, len(c.Placement.Nodes))
	for _, n := range c.Placement.Nodes {
		known[n.ID] = true
	}
	for _, f := range c.Faults {
		if err := f.Validate(known); err != nil {
			return err
		}
	}
	disks := make(map[string]int, len(c.Placement.Nodes))
	for _, n := range c.Placement.Nodes {
		disks[n.ID] = n.disks()
	}
	for _, g := range c.Gray {
		if err := g.Validate(disks); err != nil {
			return err
		}
	}
	if c.Policy < PolicyBlind || c.Policy > PolicyHedge {
		return fmt.Errorf("%w: routing policy %d", ErrBadCluster, int(c.Policy))
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	if math.IsNaN(c.StarveWait) || math.IsInf(c.StarveWait, 0) || c.StarveWait < 0 {
		return fmt.Errorf("%w: starve wait %v", ErrBadCluster, c.StarveWait)
	}
	return nil
}

// Identity keys the resume snapshot to the whole configuration: a
// checkpoint taken under one configuration refuses to restore under
// another.
func (c ChurnConfig) Identity() uint64 { return checkpoint.Identity("cluster.churn", c) }

// ChurnWindow is one post-warmup measurement window.
type ChurnWindow struct {
	Start              float64
	Arrivals, Admitted uint64
	// Starved counts admitted viewers whose wait blew StarveWait; they
	// are deducted from the window's availability.
	Starved      uint64
	Availability float64
	Hit          float64
}

// ChurnResult is a churn run's measurements (all post-warmup).
type ChurnResult struct {
	// Arrivals partition into Admitted and the typed sheds.
	Arrivals, Admitted                         uint64
	ShedNoReplica, ShedSaturated, ShedDegraded uint64
	// Failovers counts admitted viewers served by a non-primary replica
	// while the primary's node was down.
	Failovers uint64
	// Availability is Admitted/Arrivals; FloorAvailability is the worst
	// single window's availability.
	Availability      float64
	FloorAvailability float64
	// Hit is the mean expected resume-hit probability over admitted
	// viewers, contention-discounted: a replica serving more viewers
	// than its pre-allocation sized for dilutes its buffer hit rate.
	Hit float64
	// Windows is the availability/hit timeline.
	Windows []ChurnWindow
	// Controller is the rebalancer's spend and activity (zero when the
	// controller was off).
	Controller ControllerStats
	// ConvergedAt is when the controller went quiet after the last
	// flash crowd decayed; TimeToConverge is the gap. Both -1 when not
	// measured (no flashes, controller off, or never converged).
	ConvergedAt, TimeToConverge float64

	// Gray-run measurements (all zero on non-gray runs). Starved counts
	// admitted viewers whose service wait exceeded StarveWait — admitted
	// but effectively unserved, so Availability deducts them. The wait
	// quantiles are over admitted post-warmup viewers, in normalized
	// service units (1.0 = nominal).
	Starved                                      uint64
	WaitMean, WaitP50, WaitP95, WaitP99, WaitMax float64
	// Gray counts the router's resilience activity; NodeHealth is the
	// end-of-run per-node health (nil on non-gray runs).
	Gray       GrayRouterStats
	NodeHealth []NodeHealthInfo
}

// Summary renders a human-readable digest.
func (r *ChurnResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn: arrivals=%d admitted=%d availability=%.4f floor=%.4f P(hit)=%.4f\n",
		r.Arrivals, r.Admitted, r.Availability, r.FloorAvailability, r.Hit)
	fmt.Fprintf(&b, "  shed: no-replica=%d saturated=%d degraded=%d  failovers=%d\n",
		r.ShedNoReplica, r.ShedSaturated, r.ShedDegraded, r.Failovers)
	c := r.Controller
	fmt.Fprintf(&b, "  controller: adds=%d drops=%d migrations=%d/%d/%d (started/done/aborted) spent=%.1f MB",
		c.ReplicaAdds, c.ReplicaDrops, c.MigrationsStarted, c.MigrationsCompleted, c.MigrationsAborted,
		c.SpentBytes/1e6)
	if c.BudgetExhausted {
		b.WriteString(" BUDGET-EXHAUSTED")
	}
	fmt.Fprintf(&b, " peak-level=%s\n", c.PeakLevel)
	if c.Evacuations > 0 || c.EvacuationsBlocked > 0 {
		fmt.Fprintf(&b, "  controller: evacuations=%d/%d (started/completed) blocked=%d\n",
			c.Evacuations, c.EvacuationsCompleted, c.EvacuationsBlocked)
	}
	if r.TimeToConverge >= 0 {
		fmt.Fprintf(&b, "  reconverged %.1f min after the last flash (t=%.1f)\n", r.TimeToConverge, r.ConvergedAt)
	}
	if len(r.NodeHealth) > 0 {
		fmt.Fprintf(&b, "  gray: starved=%d wait mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			r.Starved, r.WaitMean, r.WaitP50, r.WaitP95, r.WaitP99, r.WaitMax)
		g := r.Gray
		fmt.Fprintf(&b, "  gray: hedges=%d wins=%d cancels=%d denied=%d probes=%d suspects=%d quarantines=%d restores=%d\n",
			g.Hedges, g.HedgeWins, g.HedgeCancels, g.HedgeDenied, g.Probes, g.Suspects, g.Quarantines, g.Restores)
		if g.DiskSuspects > 0 || g.DiskQuarantines > 0 || g.DiskRestores > 0 || g.DiskProbes > 0 {
			fmt.Fprintf(&b, "  gray: disk suspects=%d quarantines=%d restores=%d probes=%d\n",
				g.DiskSuspects, g.DiskQuarantines, g.DiskRestores, g.DiskProbes)
		}
		for _, nh := range r.NodeHealth {
			fmt.Fprintf(&b, "  node %-8s %-11s score=%.3f ewma=%.2f samples=%d\n",
				nh.Node, nh.State, nh.Score, nh.EWMA, nh.Samples)
			for _, dh := range nh.Disks {
				fmt.Fprintf(&b, "    disk %-6d %-11s score=%.3f ewma=%.2f samples=%d\n",
					dh.Disk, dh.State, dh.Score, dh.EWMA, dh.Samples)
			}
		}
	}
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "  [%6.0f] arrivals=%d availability=%.4f hit=%.4f\n",
			w.Start, w.Arrivals, w.Availability, w.Hit)
	}
	return b.String()
}

// Churn event kinds, fired by churnRun.Fire. Each kind is also its
// kernel class, so the list is in tie-break priority order at equal
// timestamps: node transitions first (outages, then gray set/clear),
// then migration completions (a replica landing at time t serves
// traffic at time t), the epoch re-draw and the control tick before
// traffic, and departures before arrivals so slots free first. The
// kernel fires equal-time events lowest class first, FIFO within a
// class. The operand of an outage or gray event is its index in the
// config's Faults or Gray, of a migration or departure its index in the
// run's table, and of an arrival epoch·len(movies) + movie.
const (
	cevDown des.Kind = iota
	cevUp
	cevGraySet
	cevGrayClear
	cevMigDone
	cevEpoch
	cevTick
	cevDeparture
	cevArrival
)

// churnRun is the engine's live state. The run is strictly sequential;
// determinism comes from the seeded generators and the kernel's (time,
// class, seq) event order.
type churnRun struct {
	cfg      ChurnConfig
	router   *Router
	ctrl     *Controller // nil when ControllerOff
	movies   []workload.Movie
	alloc    []MovieAlloc // primary allocations by catalog position, shared with ctrl
	rngs     []*rand.Rand
	rates    []float64
	k        horizonKernel
	epoch    int
	flashEnd float64
	// migrations and departures hold the operands of scheduled
	// migration landings and viewer departures. An event at or past the
	// horizon never fires on the run, so its record stays in use until
	// the run ends.
	migrations des.Slots[Migration]
	departures des.Slots[departure]

	arrivals, admitted uint64
	shed               [3]uint64 // by ShedReason
	failovers          uint64
	flows              []movieFlow // per movie; not digested
	hitSum             float64
	wins               []churnWinAcc
	convergedAt        float64

	// Gray-run state (nil/zero on non-gray runs). graySlow/graySigma/
	// grayFrac are the per-[node][disk] multipliers currently in force
	// (a whole-node fault sets every disk; single-disk nodes have one
	// entry, matching the pre-disk model exactly); grayRNG is the
	// dedicated jitter stream; waits holds every post-warmup admitted
	// wait for result-time quantiles (its sum/max/len — not the slice —
	// feed the digest).
	grayOn                        bool
	graySlow, graySigma, grayFrac [][]float64
	grayRNG                       *rand.Rand
	waits                         []float64
	waitSum, waitMax              float64
	starved                       uint64
}

// departure is an admitted viewer's booking, released when he leaves:
// the movie's index, the serving node and, on gray runs, its disk.
type departure struct {
	movie int
	node  string
	disk  int
}

// movieFlow is one movie's post-warmup routing tallies: arrivals, those
// routed (admitted), and routed failovers.
type movieFlow struct {
	arrivals, routed, failovers uint64
}

type churnWinAcc struct {
	arrivals, admitted uint64
	starved            uint64
	hitSum             float64
}

func newChurnRun(cfg ChurnConfig) (*churnRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Placement, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &churnRun{
		cfg:         cfg,
		router:      router,
		movies:      cfg.Workload.Movies,
		alloc:       primaryAllocs(cfg.Placement, cfg.Workload.Movies),
		rngs:        make([]*rand.Rand, len(cfg.Workload.Movies)),
		rates:       make([]float64, len(cfg.Workload.Movies)),
		k:           horizonKernel{horizon: cfg.Horizon},
		flows:       make([]movieFlow, len(cfg.Workload.Movies)),
		flashEnd:    cfg.Workload.LastFlashEnd(),
		convergedAt: -1,
	}
	if !cfg.ControllerOff {
		r.ctrl, err = newController(cfg.Controller, cfg.Placement, r.movies, router, r.alloc)
		if err != nil {
			return nil, err
		}
	}
	for i, f := range cfg.Faults {
		r.k.at(f.At, cevDown, r, i)
		if f.Until > f.At {
			r.k.at(f.Until, cevUp, r, i)
		}
	}
	if cfg.grayActive() {
		r.grayOn = true
		if err := router.SetGrayPolicy(cfg.Policy, cfg.Health); err != nil {
			return nil, err
		}
		n := len(cfg.Placement.Nodes)
		r.graySlow = make([][]float64, n)
		r.graySigma = make([][]float64, n)
		r.grayFrac = make([][]float64, n)
		for i := 0; i < n; i++ {
			nd := router.disks[i]
			r.graySlow[i] = make([]float64, nd)
			r.graySigma[i] = make([]float64, nd)
			r.grayFrac[i] = make([]float64, nd)
			for d := 0; d < nd; d++ {
				r.graySlow[i][d], r.grayFrac[i][d] = 1, 1
			}
		}
		r.grayRNG = rand.New(rand.NewSource(cfg.Seed ^ churnGraySalt))
		for i, g := range cfg.Gray {
			r.k.at(g.At, cevGraySet, r, i)
			if g.Until > g.At {
				r.k.at(g.Until, cevGrayClear, r, i)
			}
		}
	}
	cfg.Workload.RatesInto(0, r.rates)
	for i := range r.movies {
		r.rngs[i] = rand.New(rand.NewSource(cfg.Seed ^ (int64(i+1) * 0x5E3779B97F4A7C15)))
	}
	r.redrawArrivals(0)
	if el := cfg.Workload.EpochLength(); el < cfg.Horizon && !cfg.Workload.Static() {
		r.k.at(el, cevEpoch, r, 0)
	}
	if r.ctrl != nil {
		r.k.at(r.ctrl.cfg.Interval, cevTick, r, 0)
	}
	if r.k.err != nil {
		return nil, r.k.err
	}
	return r, nil
}

// Fire runs one of the run's events.
func (r *churnRun) Fire(now float64, kind des.Kind, arg int) {
	switch kind {
	case cevDown, cevUp:
		r.setNodeDown(r.cfg.Faults[arg].Node, kind == cevDown)
	case cevGraySet, cevGrayClear:
		r.applyGray(r.cfg.Gray[arg], kind == cevGraySet)
	case cevMigDone:
		if err := r.ctrl.Complete(r.migrations.Take(arg)); err != nil {
			r.k.fail(err)
		}
	case cevEpoch:
		r.epochBoundary(now)
	case cevTick:
		r.tick(now)
	case cevDeparture:
		r.depart(r.departures.Take(arg))
	case cevArrival:
		r.arrival(arg%len(r.movies), arg/len(r.movies), now)
	default:
		panic(fmt.Sprintf("cluster: churn event kind %d", kind))
	}
}

// redrawArrivals draws every movie's next gap from `from` at the current
// epoch's rate, stamping each draw with the epoch. Draws scheduled under
// an earlier epoch stay queued and fire as no-ops.
func (r *churnRun) redrawArrivals(from float64) {
	for i := range r.movies {
		r.scheduleArrival(i, from)
	}
}

// scheduleArrival draws movie i's next gap at the current epoch rate.
// A zero-rate movie schedules nothing; the next epoch boundary re-draws
// it if its rate returns.
func (r *churnRun) scheduleArrival(i int, from float64) {
	if !(r.rates[i] > 0) {
		return
	}
	r.k.at(from+r.rngs[i].ExpFloat64()/r.rates[i], cevArrival, r, r.epoch*len(r.movies)+i)
}

// winFor returns the accumulator of the window containing time t,
// growing the timeline as needed.
func (r *churnRun) winFor(t float64) *churnWinAcc {
	wi := int((t - r.cfg.Warmup) / r.cfg.window())
	for len(r.wins) <= wi {
		r.wins = append(r.wins, churnWinAcc{})
	}
	return &r.wins[wi]
}

// setNodeDown applies one outage edge to the router, and lets the
// controller abort the migrations a downed node breaks.
func (r *churnRun) setNodeDown(node string, down bool) {
	if err := r.router.SetNodeDown(node, down); err != nil {
		r.k.fail(err)
		return
	}
	if r.ctrl != nil {
		// Aborted migrations stay charged; nothing to schedule.
		r.ctrl.SetNodeDown(node, down)
	}
}

// epochBoundary moves the workload to its next piecewise-constant epoch.
func (r *churnRun) epochBoundary(now float64) {
	r.epoch++
	r.cfg.Workload.RatesInto(now, r.rates)
	// Re-draw every movie's pending gap at the new rate (exact by
	// memorylessness); the stale draws in the queue die by epoch stamp.
	r.redrawArrivals(now)
	if next := now + r.cfg.Workload.EpochLength(); next < r.cfg.Horizon {
		r.k.at(next, cevEpoch, r, 0)
	}
}

// tick runs one controller round and schedules its migrations' landings.
func (r *churnRun) tick(now float64) {
	for _, m := range r.ctrl.Tick(now) {
		r.k.at(m.Done, cevMigDone, r, r.migrations.Put(m))
	}
	if r.convergedAt < 0 && r.flashEnd > 0 && now >= r.flashEnd &&
		r.ctrl.InFlight() == 0 && r.ctrl.QuietTicks() >= 2 {
		r.convergedAt = now
	}
	if next := now + r.ctrl.cfg.Interval; next < r.cfg.Horizon {
		r.k.at(next, cevTick, r, 0)
	}
}

// arrival admits, routes or sheds one viewer of movie i. An arrival
// drawn under an earlier epoch is stale and does nothing.
func (r *churnRun) arrival(i, epoch int, now float64) {
	if epoch != r.epoch {
		return
	}
	r.scheduleArrival(i, now)
	measured := now >= r.cfg.Warmup
	var win *churnWinAcc
	if measured {
		r.arrivals++
		r.flows[i].arrivals++
		win = r.winFor(now)
		win.arrivals++
	}
	if r.ctrl != nil {
		r.ctrl.ObserveArrival(i)
		if !r.ctrl.Admit(i) {
			if measured {
				r.shed[ShedDegraded]++
			}
			return
		}
	}
	name := r.movies[i].Name
	var (
		d    LoadDecision
		wait float64
		disk int
		err  error
	)
	if r.grayOn {
		var gd GrayDecision
		gd, err = r.router.RouteGray(name, now, r.nodeWait)
		d, wait, disk = gd.LoadDecision, gd.Wait, gd.Disk
	} else {
		d, err = r.router.RouteLoad(name)
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrUnavailable):
			if measured {
				r.shed[ShedNoReplica]++
			}
		case errors.Is(err, ErrSaturated):
			if measured {
				r.shed[ShedSaturated]++
			}
		default:
			r.k.fail(err)
		}
		return
	}
	r.k.at(now+r.movies[i].Length, cevDeparture, r, r.departures.Put(departure{movie: i, node: d.Node, disk: disk}))
	if !measured {
		return
	}
	r.admitted++
	r.flows[i].routed++
	win.admitted++
	// Contention-aware hit: a replica carrying more live viewers than its
	// pre-allocated streams dilutes its buffer hit rate proportionally —
	// the paper's sizing holds at or under N.
	hit := r.alloc[i].Hit
	if d.Live > d.AllocN && d.AllocN > 0 {
		hit *= float64(d.AllocN) / float64(d.Live)
	}
	r.hitSum += hit
	win.hitSum += hit
	if d.Failover {
		r.failovers++
		r.flows[i].failovers++
	}
	if r.grayOn {
		r.waits = append(r.waits, wait)
		r.waitSum += wait
		if wait > r.waitMax {
			r.waitMax = wait
		}
		if wait > r.cfg.starveWait() {
			r.starved++
			win.starved++
		}
	}
}

// depart releases a departing viewer's booking.
func (r *churnRun) depart(d departure) {
	name := r.movies[d.movie].Name
	if r.grayOn {
		// Gray departures drain the exact disk that served the stream,
		// recorded at admission — replay-exact per-disk occupancy.
		r.router.ReleaseDisk(name, d.node, d.disk)
	} else {
		r.router.Release(name, d.node)
	}
}

// churnGraySalt derives the dedicated jitter stream from the run seed,
// so gray noise never perturbs the arrival or routing draws.
const churnGraySalt = 0x677261796368726e

// applyGray installs (set) or lifts (clear) one gray fault's multiplier
// on its node — every disk for a whole-node fault, exactly one for a
// ":dN"-scoped fault. Overlapping same-kind faults don't stack: the
// event applying last wins, and clearing restores nominal.
func (r *churnRun) applyGray(g GrayFault, set bool) {
	ni, ok := r.router.node[g.Node]
	if !ok {
		return // validated at config time; defensive
	}
	lo, hi := 0, len(r.graySlow[ni])
	if d, onDisk := g.DiskIndex(); onDisk {
		if d >= hi {
			return // validated at config time; defensive
		}
		lo, hi = d, d+1
	}
	for d := lo; d < hi; d++ {
		switch g.Kind {
		case GraySlow:
			if set {
				r.graySlow[ni][d] = g.Factor
			} else {
				r.graySlow[ni][d] = 1
			}
		case GrayJitter:
			if set {
				r.graySigma[ni][d] = g.Factor
			} else {
				r.graySigma[ni][d] = 0
			}
		case GrayBrownout:
			if set {
				r.grayFrac[ni][d] = g.Factor
			} else {
				r.grayFrac[ni][d] = 1
			}
		}
	}
}

// nodeWait is the physical service-wait model the router routes
// against but never sees directly: the serving disk's slow multiplier,
// amplified by queueing congestion against the disk's share of the
// node's *browned-out* capacity (the router still believes nominal
// capacity — that gap is what makes the failure gray), stretched by
// mean-one lognormal jitter. On single-disk nodes this reduces exactly
// to the node-level model.
func (r *churnRun) nodeWait(node, disk, liveAfter int) float64 {
	w := r.graySlow[node][disk]
	eff := float64(r.router.maxStreams[node]) / float64(r.router.disks[node])
	if frac := r.grayFrac[node][disk]; frac > 0 && frac < 1 {
		eff *= frac
	}
	if eff > 0 {
		rho := float64(liveAfter) / eff
		if rho > 0.95 {
			rho = 0.95
		}
		w *= 1 + rho/(1-rho)
	}
	if sg := r.graySigma[node][disk]; sg > 0 {
		w *= math.Exp(sg*r.grayRNG.NormFloat64() - sg*sg/2)
	}
	return w
}

// digest hashes the run's observable mutable state — counters, window
// accumulators, clock, epoch, router and controller state — for
// checkpoint verification. Floats hash by bit pattern: exact, not
// approximate.
func (r *churnRun) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64(r.k.Now())
	u64(r.k.Fired())
	u64(uint64(r.epoch))
	u64(uint64(r.k.Pending()))
	u64(r.arrivals)
	u64(r.admitted)
	for _, s := range r.shed {
		u64(s)
	}
	u64(r.failovers)
	f64(r.hitSum)
	f64(r.convergedAt)
	u64(uint64(len(r.wins)))
	for _, w := range r.wins {
		u64(w.arrivals)
		u64(w.admitted)
		u64(w.starved)
		f64(w.hitSum)
	}
	// Gray state folds as sum/max/count — not the waits slice, whose
	// only job is result-time quantiles — plus the multipliers in force.
	f64(r.waitSum)
	f64(r.waitMax)
	u64(uint64(len(r.waits)))
	u64(r.starved)
	for i := range r.graySlow {
		for d := range r.graySlow[i] {
			f64(r.graySlow[i][d])
			f64(r.graySigma[i][d])
			f64(r.grayFrac[i][d])
		}
	}
	r.router.digest(u64)
	if r.ctrl != nil {
		r.ctrl.digest(u64)
	}
	return h.Sum64()
}

func (r *churnRun) checkpointNow() sim.Checkpoint {
	return sim.Checkpoint{Fired: r.k.Fired(), Now: r.k.Now(), Digest: r.digest()}
}

// run drives the event loop to the end of the run, handing a checkpoint
// to sink every `every` events. The checkpoints only observe the
// schedule: the event sequence and result are identical at any cadence.
func (r *churnRun) run(ctx context.Context, every int, sink func(sim.Checkpoint) error) error {
	for !r.k.ended {
		if r.k.Fired()%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !r.k.Step() {
			return nil
		}
		if r.k.err != nil {
			return r.k.err
		}
		if !r.k.ended && sink != nil && every > 0 && r.k.Fired()%uint64(every) == 0 {
			if err := sink(r.checkpointNow()); err != nil {
				return err
			}
		}
	}
	return nil
}

// result finalizes the measurements.
func (r *churnRun) result() *ChurnResult {
	res := &ChurnResult{
		Arrivals:      r.arrivals,
		Admitted:      r.admitted,
		ShedNoReplica: r.shed[ShedNoReplica],
		ShedSaturated: r.shed[ShedSaturated],
		ShedDegraded:  r.shed[ShedDegraded],
		Failovers:     r.failovers,
		Starved:       r.starved,
		Availability:  1,
		ConvergedAt:   r.convergedAt,
	}
	if r.ctrl != nil {
		res.Controller = r.ctrl.Stats()
	}
	if r.arrivals > 0 {
		// Starved viewers were admitted but effectively unserved; on
		// non-gray runs starved is always zero and this is Admitted/Arrivals.
		res.Availability = float64(r.admitted-r.starved) / float64(r.arrivals)
	}
	if r.admitted > 0 {
		res.Hit = r.hitSum / float64(r.admitted)
	}
	res.FloorAvailability = 1
	for k, w := range r.wins {
		cw := ChurnWindow{
			Start:        r.cfg.Warmup + float64(k)*r.cfg.window(),
			Arrivals:     w.arrivals,
			Admitted:     w.admitted,
			Starved:      w.starved,
			Availability: 1,
		}
		if w.arrivals > 0 {
			cw.Availability = float64(w.admitted-w.starved) / float64(w.arrivals)
			if cw.Availability < res.FloorAvailability {
				res.FloorAvailability = cw.Availability
			}
		}
		if w.admitted > 0 {
			cw.Hit = w.hitSum / float64(w.admitted)
		}
		res.Windows = append(res.Windows, cw)
	}
	if r.grayOn {
		res.Gray = r.router.GrayStats()
		res.NodeHealth = r.router.HealthSnapshot()
		if n := len(r.waits); n > 0 {
			s := make([]float64, n)
			copy(s, r.waits)
			sort.Float64s(s)
			q := func(p float64) float64 {
				i := int(math.Ceil(p*float64(n))) - 1
				if i < 0 {
					i = 0
				}
				return s[i]
			}
			res.WaitMean = r.waitSum / float64(n)
			res.WaitP50, res.WaitP95, res.WaitP99 = q(0.50), q(0.95), q(0.99)
			res.WaitMax = r.waitMax
		}
	}
	if r.convergedAt >= 0 {
		res.TimeToConverge = r.convergedAt - r.flashEnd
	} else {
		res.TimeToConverge = -1
	}
	return res
}

// RunChurn runs the churn simulation to the horizon.
func RunChurn(ctx context.Context, cfg ChurnConfig) (*ChurnResult, error) {
	return RunChurnCheckpointed(ctx, cfg, 0, nil)
}

// RunChurnCheckpointed is RunChurn handing a restart checkpoint to sink
// every `every` events, so a SIGKILL mid-run (mid-rebalance included —
// in-flight migrations are part of the digested state) can resume.
func RunChurnCheckpointed(ctx context.Context, cfg ChurnConfig, every int, sink func(sim.Checkpoint) error) (*ChurnResult, error) {
	r, err := newChurnRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.run(ctx, every, sink); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// ResumeChurnCheckpointed restores a churn run to cp by deterministic
// replay — the engine is rebuilt from the configuration and re-executes
// events up to the boundary, then verifies the clock bits and state
// digest — and continues to the horizon. Divergence (different
// configuration, seed or binary) returns sim.ErrCheckpointMismatch.
func ResumeChurnCheckpointed(ctx context.Context, cfg ChurnConfig, cp sim.Checkpoint, every int, sink func(sim.Checkpoint) error) (*ChurnResult, error) {
	r, err := newChurnRun(cfg)
	if err != nil {
		return nil, err
	}
	err = r.k.RunToFired(cp.Fired, 1, func() error {
		if r.k.err != nil {
			return r.k.err
		}
		if r.k.Fired()%1024 == 0 {
			return ctx.Err()
		}
		return nil
	})
	switch {
	case errors.Is(err, des.ErrExhausted):
		return nil, fmt.Errorf("%w: %v", sim.ErrCheckpointMismatch, err)
	case err != nil:
		return nil, err
	case r.k.ended:
		return nil, fmt.Errorf("%w: run ended at %d events, checkpoint at %d",
			sim.ErrCheckpointMismatch, r.k.Fired(), cp.Fired)
	}
	if err := cp.Verify(r.checkpointNow()); err != nil {
		return nil, err
	}
	if err := r.run(ctx, every, sink); err != nil {
		return nil, err
	}
	return r.result(), nil
}

package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Health-weighted routing, hedged dispatch, and quarantine for the
// churn simulator. The Router owns all detection and reaction state
// (trackers, state machine, hedge deadline); the caller owns the
// physical latency model and hands it in as a waitFn, so the router
// only ever learns what a real request would have taught it.

// RoutePolicy selects the router's gray-failure posture.
type RoutePolicy int8

// The routing policies.
const (
	// PolicyBlind is the pre-gray router: capacity/load weighting only.
	// Latency is measured but never acted on.
	PolicyBlind RoutePolicy = iota
	// PolicyHealth weights replica selection by health score squared and
	// runs the quarantine state machine.
	PolicyHealth
	// PolicyHedge is PolicyHealth plus hedged dispatch: a request whose
	// primary would blow the deadline percentile is re-issued to the
	// next-best replica, first answer wins, the loser is canceled.
	PolicyHedge
)

// String names the policy as in ParseRoutePolicy.
func (p RoutePolicy) String() string {
	switch p {
	case PolicyBlind:
		return "blind"
	case PolicyHealth:
		return "health"
	case PolicyHedge:
		return "hedge"
	default:
		return "unknown"
	}
}

// ParseRoutePolicy parses "blind", "health", or "hedge".
func ParseRoutePolicy(s string) (RoutePolicy, error) {
	switch s {
	case "", "blind":
		return PolicyBlind, nil
	case "health":
		return PolicyHealth, nil
	case "hedge":
		return PolicyHedge, nil
	default:
		return 0, fmt.Errorf("%w: unknown routing policy %q (want blind|health|hedge)", ErrBadCluster, s)
	}
}

// SetGrayPolicy arms the gray-resilience machinery: the routing policy,
// the hedge budget and disk-granular health. Call before traffic flows.
func (r *Router) SetGrayPolicy(p RoutePolicy, hc HealthConfig) error {
	if p < PolicyBlind || p > PolicyHedge {
		return fmt.Errorf("%w: routing policy %d", ErrBadCluster, int(p))
	}
	if err := hc.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
	r.hcfg = hc
	for i := range r.health {
		r.health[i].win = newSampleWindow(healthWindow)
	}
	r.refScratch = make([]float64, len(r.ids))
	// The deadline window holds 4× the node window so the hedge
	// percentile reflects cluster-wide recent history, not one node's.
	r.waits = newSampleWindow(4 * healthWindow)
	r.diskLive = make([][]int, len(r.ids))
	for i := range r.ids {
		r.diskLive[i] = make([]int, r.disks[i])
	}
	if r.hcfg.DiskHealth {
		r.diskHealth = make([][]nodeHealth, len(r.ids))
		for i := range r.ids {
			r.diskHealth[i] = make([]nodeHealth, r.disks[i])
			for d := range r.diskHealth[i] {
				r.diskHealth[i][d].win = newSampleWindow(healthWindow)
			}
		}
	}
	// The hedge bucket starts full: a burst against a fresh fault is the
	// budget's whole point.
	r.hedgeTokens = r.hcfg.HedgeBudget
	return nil
}

// SetHealthState forces a node's quarantine state (an operator
// override; tests and drills use it to pin states).
func (r *Router) SetHealthState(node string, st HealthState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	if st < Healthy || st > Probation {
		return fmt.Errorf("%w: health state %d", ErrBadCluster, int(st))
	}
	r.health[i].state = st
	r.health[i].bad, r.health[i].good, r.health[i].probes = 0, 0, 0
	return nil
}

// HealthState reports a node's current quarantine state.
func (r *Router) HealthState(node string) (HealthState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.node[node]
	if !ok {
		return 0, fmt.Errorf("%w: unknown node %q", ErrBadCluster, node)
	}
	return r.health[i].state, nil
}

// healthLocked reports node i's quarantine state, its score, and when
// the state was entered — the controller's view for health-aware
// placement and evacuation dwell. Everything reads Healthy under
// PolicyBlind: a blind router measures latency but never acts on it,
// and the controller riding on top must stay byte-identical to the
// health-blind control plane. Lock held.
func (r *Router) healthLocked(i int) (st HealthState, score, since float64) {
	if r.policy == PolicyBlind {
		return Healthy, 1, 0
	}
	return r.health[i].state, r.scoreLocked(i), r.health[i].since
}

// GrayStats returns a snapshot of the gray-resilience counters.
func (r *Router) GrayStats() GrayRouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gray
}

// HealthSnapshot reports every node's health, in node order.
func (r *Router) HealthSnapshot() []NodeHealthInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeHealthInfo, len(r.ids))
	for i := range r.ids {
		nh := &r.health[i]
		out[i] = NodeHealthInfo{
			Node:    r.ids[i],
			State:   nh.state.String(),
			Score:   r.scoreLocked(i),
			EWMA:    nh.ewma,
			Samples: nh.n,
		}
		if r.diskHealth != nil {
			for d := range r.diskHealth[i] {
				dh := &r.diskHealth[i][d]
				out[i].Disks = append(out[i].Disks, DiskHealthInfo{
					Disk:    d,
					State:   dh.state.String(),
					Score:   r.diskScoreLocked(i, d),
					EWMA:    dh.ewma,
					Samples: dh.n,
				})
			}
		}
	}
	return out
}

// refLocked is the cluster latency reference: the median EWMA over
// warmed, up, non-quarantined nodes, clamped to at least the nominal
// unit. Scoring against the cluster median means uniform load swings
// move everyone together and accuse no one, while a single gray node
// stands out.
func (r *Router) refLocked() float64 {
	s := r.refScratch[:0]
	for i := range r.ids {
		nh := &r.health[i]
		if r.down[i] || nh.state == Quarantined || nh.n < healthWarmMin {
			continue
		}
		s = append(s, nh.ewma)
	}
	if len(s) == 0 {
		return 1
	}
	sort.Float64s(s)
	// Lower median: with an even count the healthier half sets the
	// reference, so in a two-host set one slow node cannot become its
	// own yardstick.
	ref := s[(len(s)-1)/2]
	if ref < 1 {
		ref = 1
	}
	return ref
}

// scoreLocked is node i's health score in (0, 1].
func (r *Router) scoreLocked(i int) float64 {
	return r.trackerScoreLocked(&r.health[i])
}

// trackerScoreLocked scores one node or disk tracker: reference latency
// over the worse of its EWMA and its window quantile. Unwarmed trackers
// score 1 — they don't accuse.
func (r *Router) trackerScoreLocked(nh *nodeHealth) float64 {
	if nh.n < healthWarmMin {
		return 1
	}
	sig := nh.ewma
	if q := nh.win.quantile(healthQuantile); q > sig {
		sig = q
	}
	ref := r.refLocked()
	if sig <= ref {
		return 1
	}
	return ref / sig
}

// instScoreLocked scores a single wait sample against the reference —
// the judgment used for probation probes, where the tracker was reset
// and each probe must stand on its own.
func (r *Router) instScoreLocked(wait float64) float64 {
	ref := r.refLocked()
	if wait <= ref {
		return 1
	}
	return ref / wait
}

// diskScoreLocked is disk d of node i's health score, judged against
// the same cluster reference as node scores: a disk is sick relative to
// the fleet's nominal latency, not relative to its own siblings.
func (r *Router) diskScoreLocked(i, d int) float64 {
	if r.diskHealth == nil {
		return 1
	}
	return r.trackerScoreLocked(&r.diskHealth[i][d])
}

// activeDisksLocked counts node i's non-quarantined disks.
func (r *Router) activeDisksLocked(i int) int {
	if r.diskHealth == nil {
		return r.disks[i]
	}
	n := 0
	for d := range r.diskHealth[i] {
		if r.diskHealth[i][d].state != Quarantined {
			n++
		}
	}
	return n
}

// nodeFullLocked reports whether node i can take no further stream: its
// live load has reached its stream budget, pro-rated down when some of
// its disks are quarantined (a node serving on half its disks offers
// half its streams; the live count still includes streams draining off
// the quarantined disks, so capacity recovers only as they play out).
func (r *Router) nodeFullLocked(i int) bool {
	if r.maxStreams[i] <= 0 {
		return false
	}
	eff := r.maxStreams[i]
	if r.diskHealth != nil {
		eff = r.maxStreams[i] * r.activeDisksLocked(i) / r.disks[i]
	}
	return r.live[i] >= eff
}

// pickDiskLocked chooses the serving disk for one stream landing on
// node i: the least-loaded non-quarantined disk, lowest index on ties —
// deterministic, no draw, so the gray path stays RNG-neutral. With
// every disk quarantined (possible only via operator override; the
// machine's guard keeps one disk active) it falls back to disk 0.
func (r *Router) pickDiskLocked(i int) int {
	if r.disks[i] <= 1 {
		return 0
	}
	best, bestLive := -1, 0
	for d := 0; d < r.disks[i]; d++ {
		if r.diskHealth != nil && r.diskHealth[i][d].state == Quarantined {
			continue
		}
		if best < 0 || r.diskLive[i][d] < bestLive {
			best, bestLive = d, r.diskLive[i][d]
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// probeDiskLocked picks a Probation disk of node i due for a probe:
// every probeEvery-th stream the node admits while a disk waits in
// Probation routes to that disk (a counter, not a draw). Returns -1
// when no disk probe is due.
func (r *Router) probeDiskLocked(i int) int {
	if r.diskHealth == nil {
		return -1
	}
	for d := range r.diskHealth[i] {
		dh := &r.diskHealth[i][d]
		if dh.state != Probation {
			continue
		}
		dh.probes++
		if dh.probes%probeEvery == 0 {
			return d
		}
	}
	return -1
}

// observeDiskLocked feeds one measured wait into disk d of node i, and
// judges probation probes on the sample alone, mirroring the node
// machine. Disk relapse needs no movie-availability guard — the node
// still routes on its other disks — only the last-active-disk one.
func (r *Router) observeDiskLocked(i, d int, wait, now float64, probe bool) {
	if r.diskHealth == nil {
		return
	}
	dh := &r.diskHealth[i][d]
	dh.observe(healthAlpha, wait)
	if probe {
		r.judgeProbeLocked(dh, wait, now, func() bool { return r.diskCanQuarantineLocked(i, d) }, &r.gray.DiskRestores)
	}
}

// diskCanQuarantineLocked guards a node's service: quarantining disk d
// must leave at least one active disk on node i — losing the last disk
// is a node-level event, the node machine's call to make.
func (r *Router) diskCanQuarantineLocked(i, d int) bool {
	for x := range r.diskHealth[i] {
		if x != d && r.diskHealth[i][x].state != Quarantined {
			return true
		}
	}
	return false
}

// fleetHealthLocked is the cluster-wide health factor scaling the hedge
// budget refill: the inverse of the fleet's median latency reference.
// One sick node barely moves the median — refill stays at full rate —
// while a cluster-wide brownout inflates every tracker and throttles
// refill toward zero, exactly when duplicate dispatch would amplify the
// overload.
func (r *Router) fleetHealthLocked() float64 {
	ref := r.refLocked()
	if ref <= 1 {
		return 1
	}
	return 1 / ref
}

// canQuarantineLocked guards availability: quarantining node i must not
// leave any movie it hosts without at least one up, routable replica.
func (r *Router) canQuarantineLocked(i int) bool {
	for _, reps := range r.replicas {
		mine, others := false, 0
		for _, rep := range reps {
			if rep.node == i {
				mine = true
				continue
			}
			if r.routableLocked(rep.node) {
				others++
			}
		}
		if mine && others == 0 {
			return false
		}
	}
	return true
}

// healthCounters points at the GrayRouterStats transition counters one
// level of the quarantine machine — nodes or disks — bumps.
type healthCounters struct{ suspects, quarantines, restores *uint64 }

// tickHealthLocked advances the quarantine state machine for every
// node, scored on its current tracker. Running the machine per routing
// decision — not per observation of the node itself — matters: once a
// slow node's score collapses, health-weighted routing starves it of
// observations, and a per-observation machine would freeze mid-streak,
// leaving the node formally Healthy while trickling it traffic forever.
func (r *Router) tickHealthLocked(now float64) {
	nodes := healthCounters{&r.gray.Suspects, &r.gray.Quarantines, &r.gray.Restores}
	for i := range r.health {
		if !r.down[i] {
			r.stepHealthLocked(&r.health[i], now, func() bool { return r.canQuarantineLocked(i) }, nodes)
		}
	}
	if r.diskHealth == nil {
		return
	}
	// The disk machines mirror the node machine one level down. A
	// quarantined node's disks hold still — no traffic reaches them, so
	// their scores are stale and their fate rides the node's.
	disks := healthCounters{&r.gray.DiskSuspects, &r.gray.DiskQuarantines, &r.gray.DiskRestores}
	for i := range r.diskHealth {
		if r.down[i] || r.health[i].state == Quarantined || r.disks[i] <= 1 {
			continue
		}
		for d := range r.diskHealth[i] {
			r.stepHealthLocked(&r.diskHealth[i][d], now, func() bool { return r.diskCanQuarantineLocked(i, d) }, disks)
		}
	}
}

// stepHealthLocked advances one tracker's machine by one routing
// decision. canQuarantine is the availability guard on Suspect →
// Quarantined, evaluated only once the streak is met; c names the
// counters the transitions bump.
func (r *Router) stepHealthLocked(nh *nodeHealth, now float64, canQuarantine func() bool, c healthCounters) {
	switch nh.state {
	case Healthy:
		if nh.n >= healthWarmMin && r.trackerScoreLocked(nh) < suspectBelow {
			nh.bad++
		} else {
			nh.bad = 0
		}
		if nh.bad >= suspectAfter {
			nh.state, nh.since = Suspect, now
			nh.bad, nh.good = 0, 0
			*c.suspects++
		}
	case Suspect:
		sc := r.trackerScoreLocked(nh)
		if sc < quarantineBelow {
			nh.bad++
		} else {
			nh.bad = 0
		}
		if sc >= restoreAbove {
			nh.good++
		} else {
			nh.good = 0
		}
		switch {
		case nh.good >= restoreAfter:
			nh.state, nh.since = Healthy, now
			nh.bad, nh.good = 0, 0
			*c.restores++
		case nh.bad >= quarantineAfter && canQuarantine():
			nh.state, nh.since = Quarantined, now
			nh.bad, nh.good = 0, 0
			*c.quarantines++
		}
	case Quarantined:
		if now-nh.since >= probationAfter {
			nh.state, nh.since = Probation, now
			nh.probes = 0
			nh.reset()
		}
	}
}

// observeLocked feeds one measured wait into node i's tracker. A
// probation probe (probe=true) is additionally judged on the sample
// alone — the tracker was reset on probation entry, so each probe
// stands on fresh evidence.
func (r *Router) observeLocked(i int, wait, now float64, probe bool) {
	nh := &r.health[i]
	nh.observe(healthAlpha, wait)
	if probe {
		r.judgeProbeLocked(nh, wait, now, func() bool { return r.canQuarantineLocked(i) }, &r.gray.Restores)
	}
}

// judgeProbeLocked judges one probation probe of a node or disk tracker
// on its wait alone: probeOK good probes in a row restore it (bumping
// restores), one bad probe sends it back to quarantine and restarts the
// full dwell — the hysteresis bounding flap frequency. canQuarantine
// guards relapses too: when it refuses (the node would strand a movie,
// the disk is its node's last active one), the tracker stays on
// probation instead.
func (r *Router) judgeProbeLocked(nh *nodeHealth, wait, now float64, canQuarantine func() bool, restores *uint64) {
	if r.policy == PolicyBlind || nh.state != Probation {
		return
	}
	switch sc := r.instScoreLocked(wait); {
	case sc >= restoreAbove:
		nh.good++
		if nh.good >= probeOK {
			nh.state, nh.since = Healthy, now
			nh.bad, nh.good = 0, 0
			*restores++
		}
	case sc < quarantineBelow:
		if canQuarantine() {
			nh.state, nh.since = Quarantined, now
		}
		nh.bad, nh.good = 0, 0
	default:
		nh.good = 0
	}
}

// recordWaitLocked feeds one experienced wait into the cluster-wide
// deadline window.
func (r *Router) recordWaitLocked(wait float64) {
	r.waits.push(wait)
}

// hedgeDeadlineLocked is the current hedging deadline: the
// hedgeQuantile of recently observed waits, floored at hedgeMin.
// Unarmed (not enough history) until hedgeWarm waits have been seen.
func (r *Router) hedgeDeadlineLocked() (float64, bool) {
	if r.waits.n < hedgeWarm {
		return 0, false
	}
	return max(r.waits.quantile(hedgeQuantile), hedgeMin), true
}

// GrayDecision is RouteGray's outcome: the winning replica plus what
// the viewer experienced.
type GrayDecision struct {
	LoadDecision
	// Wait is the service wait the viewer experienced, after any hedge.
	Wait float64
	// Disk is the serving disk index on the winning node.
	Disk int
	// Probe marks a probation probe (node- or disk-level).
	Probe bool
	// Hedged marks a hedged dispatch; HedgeWin marks the backup winning.
	Hedged, HedgeWin bool
}

// RouteGray is the gray-aware routing path: RouteLoad's replica
// selection and draw plus probation probes, wait measurement feeding
// the health trackers, and (under PolicyHedge) hedged dispatch. waitFn
// draws the physical service wait of landing one request on node index
// i with liveAfter in-flight streams; it is called once, or twice when
// a hedge is issued. A NaN or negative wait is refused with
// ErrBadCluster and the request's reservation released.
//
// Hedging models real first-wins dispatch: the primary is issued at
// t=0; if its wait exceeds the deadline D — exactly the condition "no
// answer by D" — a backup is issued at D and the request completes at
// min(wait1, D+wait2). The loser's reservation is released immediately
// with a typed cancellation (HedgeCancels).
func (r *Router) RouteGray(movie string, now float64, waitFn func(node, disk, liveAfter int) float64) (GrayDecision, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.policy != PolicyBlind {
		r.tickHealthLocked(now)
	}
	// Hedge budget refill, one step per routing decision: the base rate
	// scaled by fleet-wide median health, capped at the burst size. No
	// draw, no clock — replay-exact.
	if r.policy == PolicyHedge && r.hcfg.HedgeBudget > 0 {
		r.hedgeTokens += hedgeRefill * r.fleetHealthLocked()
		if r.hedgeTokens > r.hcfg.HedgeBudget {
			r.hedgeTokens = r.hcfg.HedgeBudget
		}
	}
	m, ok := r.movie[movie]
	if !ok {
		return GrayDecision{}, fmt.Errorf("%w: %q", ErrUnknownMovie, movie)
	}
	reps := r.replicas[m]

	// Probation probes: every probeEvery-th eligible request for a
	// probation host routes there deterministically (a counter, not a
	// draw, so replay stays exact).
	if r.policy != PolicyBlind {
		for k, rep := range reps {
			n := rep.node
			nh := &r.health[n]
			if nh.state != Probation || r.down[n] {
				continue
			}
			if r.nodeFullLocked(n) {
				continue
			}
			nh.probes++
			if nh.probes%probeEvery != 0 {
				continue
			}
			d, disk, diskProbe := r.commitLocked(m, k)
			wait := waitFn(n, disk, r.diskLiveLocked(n, disk))
			if !(wait >= 0) {
				return GrayDecision{}, r.refuseWaitLocked(m, d, n, disk, wait)
			}
			r.gray.Probes++
			r.observeLocked(n, wait, now, true)
			r.observeDiskLocked(n, disk, wait, now, diskProbe)
			r.recordWaitLocked(wait)
			return GrayDecision{LoadDecision: d, Wait: wait, Disk: disk, Probe: true}, nil
		}
	}

	up, wts, total, err := r.candidatesLocked(m)
	if err != nil {
		return GrayDecision{}, err
	}
	choice := up[r.drawLocked(wts, total)]

	d, disk1, diskProbe1 := r.commitLocked(m, choice)
	primary := reps[choice].node
	wait1 := waitFn(primary, disk1, r.diskLiveLocked(primary, disk1))
	if !(wait1 >= 0) {
		return GrayDecision{}, r.refuseWaitLocked(m, d, primary, disk1, wait1)
	}
	out := GrayDecision{LoadDecision: d, Wait: wait1, Disk: disk1, Probe: diskProbe1}

	if r.policy == PolicyHedge && len(up) > 1 {
		if dl, armed := r.hedgeDeadlineLocked(); armed && wait1 > dl {
			// Next-best replica by health score, then weight, then
			// replica order — deterministic, no extra draw.
			bk := -1
			var bs, bw float64
			for j, k := range up {
				if k == choice {
					continue
				}
				s := r.scoreLocked(reps[k].node)
				if bk < 0 || s > bs || (s == bs && wts[j] > bw) {
					bk, bs, bw = k, s, wts[j]
				}
			}
			if bk >= 0 && r.hcfg.HedgeBudget > 0 && r.hedgeTokens < 1 {
				// A hedge was wanted — deadline blown, backup available —
				// but the budget is dry: the request rides out its primary.
				r.gray.HedgeDenied++
				bk = -1
			}
			if bk >= 0 {
				backup := reps[bk].node
				bd, disk2, diskProbe2 := r.commitLocked(m, bk)
				// One request, not two: back out the double count.
				r.stats.Routed--
				if bd.Failover {
					r.stats.Failovers--
				}
				wait2 := waitFn(backup, disk2, r.diskLiveLocked(backup, disk2))
				if !(wait2 >= 0) {
					r.releaseLocked(m, backup, disk2)
					return GrayDecision{}, r.refuseWaitLocked(m, d, primary, disk1, wait2)
				}
				r.hedgeTokens--
				r.gray.Hedges++
				out.Hedged = true
				if dl+wait2 < wait1 {
					// Backup wins: cancel the primary (typed).
					r.releaseLocked(m, primary, disk1)
					r.gray.HedgeWins++
					out.LoadDecision = bd
					out.Wait = dl + wait2
					out.Disk = disk2
					out.HedgeWin = true
				} else {
					r.releaseLocked(m, backup, disk2)
				}
				r.gray.HedgeCancels++
				r.observeLocked(backup, wait2, now, false)
				r.observeDiskLocked(backup, disk2, wait2, now, diskProbe2)
			}
		}
	}
	r.observeLocked(primary, wait1, now, false)
	r.observeDiskLocked(primary, disk1, wait1, now, diskProbe1)
	r.recordWaitLocked(out.Wait)
	return out, nil
}

// diskLiveLocked is the disk's in-flight stream count (the per-disk
// congestion input of the wait model). Lock held.
func (r *Router) diskLiveLocked(node, disk int) int {
	if r.diskLive == nil {
		return r.live[node]
	}
	return r.diskLive[node][disk]
}

// commitLocked books one request onto movie m's replica k — choosing
// the serving disk, probation disks first when a probe is due — and
// builds its LoadDecision. Lock held.
func (r *Router) commitLocked(m, k int) (LoadDecision, int, bool) {
	reps := r.replicas[m]
	node := reps[k].node
	disk, diskProbe := 0, false
	if r.diskLive != nil {
		if pd := r.probeDiskLocked(node); pd >= 0 {
			disk, diskProbe = pd, true
			r.gray.DiskProbes++
		} else {
			disk = r.pickDiskLocked(node)
		}
		r.diskLive[node][disk]++
	}
	r.live[node]++
	v := r.viewers(m, node)
	*v++
	r.stats.Routed++
	d := LoadDecision{
		Node:     r.ids[node],
		Failover: r.down[reps[0].node],
		AllocN:   reps[k].n,
		Live:     *v,
	}
	if d.Failover {
		r.stats.Failovers++
	}
	return d, disk, diskProbe
}

// refuseWaitLocked backs out a committed request whose waitFn answer
// is NaN or negative — a value the sorted windows cannot order. The
// reservation is released and uncounted, no tracker or window sees the
// value, and the caller gets an ErrBadCluster. Lock held.
func (r *Router) refuseWaitLocked(m int, d LoadDecision, node, disk int, wait float64) error {
	r.releaseLocked(m, node, disk)
	r.stats.Routed--
	if d.Failover {
		r.stats.Failovers--
	}
	return fmt.Errorf("%w: wait %v on node %q is not a non-negative number", ErrBadCluster, wait, r.ids[node])
}

// grayDigest folds the gray-resilience state into the checkpoint
// digest: quarantine states and dwell clocks, tracker contents, the
// deadline ring, and every counter — so a SIGKILL-resume mid-quarantine
// verifies bit-identical. Lock held by the caller (Router.digest).
func (r *Router) grayDigest(h func(uint64)) {
	h(uint64(r.policy))
	for i := range r.health {
		r.health[i].digest(h)
	}
	r.waits.digest(h)
	if r.diskLive != nil {
		for i := range r.diskLive {
			for _, l := range r.diskLive[i] {
				h(uint64(l))
			}
		}
	}
	if r.diskHealth != nil {
		for i := range r.diskHealth {
			for d := range r.diskHealth[i] {
				r.diskHealth[i][d].digest(h)
			}
		}
	}
	h(math.Float64bits(r.hedgeTokens))
	h(r.gray.Hedges)
	h(r.gray.HedgeWins)
	h(r.gray.HedgeCancels)
	h(r.gray.HedgeDenied)
	h(r.gray.Probes)
	h(r.gray.Suspects)
	h(r.gray.Quarantines)
	h(r.gray.Restores)
	h(r.gray.DiskSuspects)
	h(r.gray.DiskQuarantines)
	h(r.gray.DiskRestores)
	h(r.gray.DiskProbes)
}

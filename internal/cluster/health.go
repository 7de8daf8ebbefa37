package cluster

import (
	"fmt"
	"math"
	"slices"
)

// Latency-aware health scoring and the quarantine state machine.
//
// Every routed request reports its service wait (normalized units,
// 1.0 = nominal) back to the router, which folds it into a per-node
// EWMA plus a fixed-size ring of recent samples. A node's health signal
// is the worse of the EWMA and a high quantile of the ring — the EWMA
// reacts to sustained shifts, the quantile to a stretching tail — and
// its score is reference/signal clipped to (0, 1], where the reference
// is the cluster median EWMA (≥ 1): a uniformly loaded cluster scores
// everyone healthy, while a single gray node stands out.
//
// Scores drive a four-state machine with hysteresis:
//
//	Healthy → Suspect       score below suspectBelow for suspectAfter
//	                        consecutive observations
//	Suspect → Quarantined   score below quarantineBelow for
//	                        quarantineAfter more observations (guarded:
//	                        never strands a movie with no routable host)
//	Suspect → Healthy       score above restoreAbove for restoreAfter
//	Quarantined → Probation after probationAfter minutes of dwell; the
//	                        tracker resets so probes are judged fresh
//	Probation → Healthy     probeOK consecutive good probes
//	Probation → Quarantined one bad probe (dwell restarts)
//
// Entering and leaving use different thresholds and consecutive-streak
// requirements, and every relapse pays the full quarantine dwell again,
// so a flapping node oscillates no faster than once per dwell period.

// HealthState is a node's position in the quarantine state machine.
type HealthState int8

// The quarantine states.
const (
	// Healthy nodes route normally.
	Healthy HealthState = iota
	// Suspect nodes still route (down-weighted by score) while the
	// scorer accumulates evidence.
	Suspect
	// Quarantined nodes receive no traffic at all.
	Quarantined
	// Probation nodes receive only periodic probe requests; good probes
	// restore them, one bad probe re-quarantines them.
	Probation
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	default:
		return "unknown"
	}
}

// The health scorer's fixed tuning.
const (
	// healthAlpha is the per-node latency EWMA smoothing factor.
	healthAlpha = 0.3
	// healthQuantile is the ring quantile blended (by max) with the
	// EWMA into the health signal.
	healthQuantile = 0.9
	// suspectBelow / quarantineBelow / restoreAbove are the score
	// thresholds of the state machine; distinct enter and exit
	// thresholds are the hysteresis band.
	suspectBelow, quarantineBelow, restoreAbove = 0.6, 0.45, 0.85
	// hedgeRefill is the hedge token bucket's refill per routing
	// decision, before scaling by fleet-wide health.
	hedgeRefill = 0.25
	// healthWindow is the per-node (and per-disk) recent-sample ring
	// size; the hedge deadline's window holds four times as many.
	healthWindow = 64
	// suspectAfter, quarantineAfter and restoreAfter are the
	// consecutive-observation streaks the machine's transitions require.
	suspectAfter, quarantineAfter, restoreAfter = 6, 10, 8
	// probationAfter is the quarantine dwell, simulated minutes, before
	// probing begins.
	probationAfter = 30.0
	// probeEvery routes every Nth eligible request to a Probation node
	// (or disk) as a probe; probeOK consecutive good probes restore it.
	probeEvery, probeOK = 8, 4
	// hedgeQuantile is the observed-wait percentile used as the hedging
	// deadline, hedgeMin the deadline's floor in wait units, and
	// hedgeWarm how many waits must be observed before hedging arms.
	hedgeQuantile, hedgeMin, hedgeWarm = 0.95, 4.0, 64
)

// HealthConfig selects the gray-resilience options a run may vary: the
// hedge budget and disk-granular health. The scorer, the quarantine
// machine and the hedge deadline run on fixed tuning (the constants
// above). The zero value is unlimited hedging at node granularity.
type HealthConfig struct {
	// HedgeBudget caps hedge volume with a token bucket of this burst
	// capacity (0 = unlimited, the pre-budget behavior). Each hedge
	// spends one token; the bucket refills by hedgeRefill tokens per
	// routing decision, scaled by fleet-wide median health — full rate
	// against one sick node, near zero under a cluster-wide brownout,
	// where duplicate dispatch would add load exactly when capacity is
	// scarcest. A hedge wanted but denied for lack of tokens counts as
	// HedgeDenied.
	HedgeBudget float64
	// DiskHealth extends the latency trackers and the quarantine state
	// machine to disk granularity: each disk of a node gets its own
	// tracker and Suspect→Quarantined→Probation machine, so one slow
	// disk is quarantined (new streams re-point to its siblings) while
	// the node's other disks keep serving. Off by default.
	DiskHealth bool
}

// Validate checks the configuration: the hedge budget must be a finite
// non-negative number.
func (c HealthConfig) Validate() error {
	if c.HedgeBudget < 0 || math.IsNaN(c.HedgeBudget) || math.IsInf(c.HedgeBudget, 0) {
		return fmt.Errorf("%w: hedge budget %v", ErrBadCluster, c.HedgeBudget)
	}
	return nil
}

// healthWarmMin is how many samples a node's tracker needs before its
// score can drop below 1 — unwarmed trackers don't accuse.
const healthWarmMin = 8

// sampleWindow is a fixed-size ring of recent samples plus a sorted
// mirror of the same samples. The ring keeps arrival order, which the
// checkpoint digest folds; the mirror answers quantiles by index. Each
// push keeps the mirror sorted: binary-search out the evicted sample,
// binary-search in the new one, and shift only the span between them —
// O(log W) compares plus at most W floats moved per sample, so a
// quantile read, far more frequent than a sample, is one index.
// Samples must be ordered (no NaN); RouteGray refuses NaN waits before
// they reach a window.
type sampleWindow struct {
	ring   []float64
	sorted []float64 // ring[:n] in ascending order
	n      int       // filled entries
	i      int       // next write index
}

func newSampleWindow(size int) sampleWindow {
	return sampleWindow{ring: make([]float64, size), sorted: make([]float64, 0, size)}
}

// push records v, evicting the oldest sample once the ring is full.
func (w *sampleWindow) push(v float64) {
	if len(w.ring) == 0 {
		return
	}
	k, _ := slices.BinarySearch(w.sorted, v)
	if w.n < len(w.ring) {
		w.sorted = slices.Insert(w.sorted, k, v)
		w.n++
	} else {
		// Remove the evicted sample at j and insert v at k in one shift.
		j, _ := slices.BinarySearch(w.sorted, w.ring[w.i])
		if k <= j {
			copy(w.sorted[k+1:j+1], w.sorted[k:j])
		} else {
			k--
			copy(w.sorted[j:k], w.sorted[j+1:k+1])
		}
		w.sorted[k] = v
	}
	w.ring[w.i] = v
	w.i = (w.i + 1) % len(w.ring)
}

// reset empties the window.
func (w *sampleWindow) reset() {
	w.n, w.i = 0, 0
	w.sorted = w.sorted[:0]
}

// quantile is the window's q-quantile (0 when empty): the
// ceil(q·n)-th smallest sample.
func (w *sampleWindow) quantile(q float64) float64 {
	if w.n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(w.n))) - 1
	if i < 0 {
		i = 0
	}
	return w.sorted[i]
}

// digest folds the fill, the write index and the samples in arrival
// order.
func (w *sampleWindow) digest(h func(uint64)) {
	h(uint64(w.n))
	h(uint64(w.i))
	for _, v := range w.ring[:w.n] {
		h(math.Float64bits(v))
	}
}

// nodeHealth is one node's latency tracker plus quarantine state.
type nodeHealth struct {
	n      uint64
	ewma   float64
	win    sampleWindow
	state  HealthState
	since  float64 // state entry time
	bad    int     // consecutive below-threshold observations
	good   int     // consecutive above-threshold observations
	probes int     // eligible requests seen while in Probation
}

func (nh *nodeHealth) observe(alpha, wait float64) {
	nh.n++
	if nh.n == 1 {
		nh.ewma = wait
	} else {
		nh.ewma += alpha * (wait - nh.ewma)
	}
	nh.win.push(wait)
}

// reset clears the tracker (entering Probation: probes are judged on
// fresh evidence, not on the samples that caused the quarantine).
func (nh *nodeHealth) reset() {
	nh.n, nh.ewma = 0, 0
	nh.win.reset()
	nh.bad, nh.good = 0, 0
}

// digest folds the tracker and its machine state into a checkpoint
// digest.
func (nh *nodeHealth) digest(h func(uint64)) {
	h(uint64(nh.state))
	h(math.Float64bits(nh.since))
	h(nh.n)
	h(math.Float64bits(nh.ewma))
	h(uint64(nh.bad))
	h(uint64(nh.good))
	h(uint64(nh.probes))
	nh.win.digest(h)
}

// DiskHealthInfo is one disk's health snapshot within a node.
type DiskHealthInfo struct {
	Disk    int     `json:"disk"`
	State   string  `json:"state"`
	Score   float64 `json:"score"`
	EWMA    float64 `json:"ewmaWait"`
	Samples uint64  `json:"samples"`
}

// NodeHealthInfo is one node's health snapshot for results and APIs.
type NodeHealthInfo struct {
	Node    string  `json:"node"`
	State   string  `json:"state"`
	Score   float64 `json:"score"`
	EWMA    float64 `json:"ewmaWait"`
	Samples uint64  `json:"samples"`
	// Disks is the per-disk breakdown, present only when disk-granular
	// health tracking is enabled.
	Disks []DiskHealthInfo `json:"disks,omitempty"`
}

// GrayRouterStats counts the gray-resilience machinery's activity.
type GrayRouterStats struct {
	// Hedges counts hedged dispatches issued; HedgeWins the hedges whose
	// backup finished first; HedgeCancels the typed cancellations of
	// hedge losers (always equal to Hedges — every hedge cancels one
	// side).
	Hedges, HedgeWins, HedgeCancels uint64
	// HedgeDenied counts hedges wanted but blocked by the token-bucket
	// hedge budget (HealthConfig.HedgeBudget).
	HedgeDenied uint64
	// Probes counts probation probe requests.
	Probes uint64
	// Suspects/Quarantines/Restores count state-machine transitions into
	// Suspect, into Quarantined, and back to Healthy.
	Suspects, Quarantines, Restores uint64
	// DiskSuspects/DiskQuarantines/DiskRestores/DiskProbes are the same
	// transitions and probes at disk granularity (zero unless
	// HealthConfig.DiskHealth is on).
	DiskSuspects, DiskQuarantines, DiskRestores, DiskProbes uint64
}

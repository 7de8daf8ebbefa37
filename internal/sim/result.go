package sim

import (
	"fmt"
	"math"
	"strings"

	"vodalloc/internal/metrics"
	"vodalloc/internal/vcr"
)

// MovieResult carries one movie's measurements.
type MovieResult struct {
	// Hit probability of resuming from a VCR request (all kinds pooled),
	// the quantity the analytic model predicts.
	Hits metrics.Proportion
	// HitsByKind splits the resume outcomes per operation type.
	HitsByKind map[vcr.Kind]metrics.Proportion
	// EndRuns counts fast-forwards that ran off the movie end (the
	// P(end) component of Eq. 21; included in Hits as hits).
	EndRuns uint64

	// Waits aggregates viewer waiting times (0 for enrolled type-2
	// viewers); MaxWait is the largest observed — bounded by w = (L−B)/N.
	Waits   metrics.Welford
	MaxWait float64
	// WaitP50/P95 are waiting-time quantiles from a reservoir sample.
	WaitP50, WaitP95 float64
	// QueuedArrivals counts type-1 viewers (arrived with the window shut).
	QueuedArrivals uint64

	// Batch stream occupancy for this movie.
	AvgBatch  float64
	PeakBatch float64

	// Flow accounting.
	Arrivals, Departures uint64
	InSystem             uint64
	BlockedOps           uint64
	BlockedResumes       uint64
	ParkEvents           uint64
	Merges, MergeFails   uint64

	// ForcedMisses counts degraded-mode fallbacks to pure batching
	// (displaced or starved viewers, and abandoned VCR requests);
	// Sheds counts viewers dropped after exhausting their retries;
	// Recovered counts degraded viewers and queued requests that
	// regained a dedicated stream; Retries counts backoff attempts.
	ForcedMisses uint64
	Sheds        uint64
	Recovered    uint64
	Retries      uint64

	// StateCounts is the viewer census at the horizon, keyed by state
	// name; non-"done" buckets sum to InSystem.
	StateCounts map[string]int

	// OpPositions is the distribution of movie positions at which VCR
	// requests were issued — an audit of the model's uniform-position
	// assumption (§3.1: P(Vc) = 1/l).
	OpPositions *metrics.Histogram
}

// HitProbability returns the pooled hit estimate.
func (r *MovieResult) HitProbability() float64 { return r.Hits.Estimate() }

// FaultStats aggregates a run's fault-injection and degraded-mode
// accounting. All zero for a fault-free run.
type FaultStats struct {
	// DiskFailures/DiskRepairs count injected events that took effect.
	DiskFailures, DiskRepairs uint64
	// PartitionsLost counts batch partitions destroyed (disk failures
	// that could not be re-admitted around, and injected buffer losses).
	PartitionsLost uint64
	// SkippedRestarts counts batch restarts denied for lack of capacity.
	SkippedRestarts uint64
	// Preempted counts dedicated VCR streams preempted for batch
	// re-admission (batch has priority in degraded mode).
	Preempted uint64
	// Recovered, ForcedMisses, Shed, and Retries sum the per-movie
	// degraded-mode counters.
	Recovered    uint64
	ForcedMisses uint64
	Shed         uint64
	Retries      uint64
	// DegradedFraction is the fraction of simulated time with at least
	// one disk failed; Availability is its complement.
	DegradedFraction float64
	Availability     float64
	// ShedRate and ForcedMissRate are per-arrival rates.
	ShedRate       float64
	ForcedMissRate float64
	// GrayEvents counts gray-fault applications (slow/jitter/brownout)
	// that took effect.
	GrayEvents uint64
}

// Any reports whether any fault or degraded-mode activity occurred.
func (f FaultStats) Any() bool {
	return f.DiskFailures+f.DiskRepairs+f.PartitionsLost+f.SkippedRestarts+
		f.Preempted+f.Recovered+f.ForcedMisses+f.Shed+f.Retries+f.GrayEvents > 0
}

// DiskLatency is one disk's service-latency tracking in normalized
// units (1.0 = nominal): gray faults inflate it, and the EWMA is the
// health signal a cluster layer would score the disk by.
type DiskLatency struct {
	Disk int
	Ops  uint64
	EWMA float64
	Mean float64
	Max  float64
}

// Result is a single-movie run's measurements: the movie's statistics
// plus the shared-resource occupancy.
type Result struct {
	MovieResult

	// Shared-resource occupancy.
	AvgDedicated  float64
	PeakDedicated int
	AvgViewers    float64
	PeakViewers   float64
	BufferPeak    float64

	// Faults is the run's fault/degradation accounting.
	Faults FaultStats
	// DiskLatency is the per-disk service-latency tracking.
	DiskLatency []DiskLatency
}

// Summary renders a human-readable digest.
func (r *Result) Summary() string {
	var b strings.Builder
	writeMovieSummary(&b, &r.MovieResult)
	fmt.Fprintf(&b, "dedicated avg=%.2f peak=%d; batch avg=%.2f; viewers avg=%.1f peak=%.0f\n",
		r.AvgDedicated, r.PeakDedicated, r.AvgBatch, r.AvgViewers, r.PeakViewers)
	writeFaultSummary(&b, r.Faults)
	writeDiskLatency(&b, r.DiskLatency)
	return b.String()
}

func writeFaultSummary(b *strings.Builder, f FaultStats) {
	if !f.Any() {
		return
	}
	fmt.Fprintf(b, "faults: failures=%d repairs=%d availability=%.4f degraded=%.4f\n",
		f.DiskFailures, f.DiskRepairs, f.Availability, f.DegradedFraction)
	fmt.Fprintf(b, "  shed=%d (rate=%.4f) forcedMisses=%d (rate=%.4f) preempted=%d recovered=%d\n",
		f.Shed, f.ShedRate, f.ForcedMisses, f.ForcedMissRate, f.Preempted, f.Recovered)
	fmt.Fprintf(b, "  lostPartitions=%d skippedRestarts=%d retries=%d\n",
		f.PartitionsLost, f.SkippedRestarts, f.Retries)
	if f.GrayEvents > 0 {
		fmt.Fprintf(b, "  grayEvents=%d\n", f.GrayEvents)
	}
}

// writeDiskLatency renders the per-disk latency trackers; silent when
// no disk ever deviated from nominal (keeps baseline output unchanged).
func writeDiskLatency(b *strings.Builder, lat []DiskLatency) {
	degraded := false
	for _, d := range lat {
		if d.Max > 1 {
			degraded = true
			break
		}
	}
	if !degraded {
		return
	}
	for _, d := range lat {
		fmt.Fprintf(b, "  disk %d: ops=%d lat ewma=%.2f mean=%.2f max=%.2f\n",
			d.Disk, d.Ops, d.EWMA, d.Mean, d.Max)
	}
}

func writeMovieSummary(b *strings.Builder, r *MovieResult) {
	lo, hi := r.Hits.Wilson95()
	fmt.Fprintf(b, "resumes=%d hit=%.4f [%.4f, %.4f] endRuns=%d\n",
		r.Hits.N(), r.Hits.Estimate(), lo, hi, r.EndRuns)
	for _, k := range []vcr.Kind{vcr.FF, vcr.RW, vcr.PAU} {
		p := r.HitsByKind[k]
		if p.N() > 0 {
			fmt.Fprintf(b, "  %s: %.4f (n=%d)\n", k, p.Estimate(), p.N())
		}
	}
	fmt.Fprintf(b, "arrivals=%d departures=%d inSystem=%d queued=%d\n",
		r.Arrivals, r.Departures, r.InSystem, r.QueuedArrivals)
	fmt.Fprintf(b, "wait mean=%.3f max=%.3f\n", r.Waits.Mean(), r.MaxWait)
	if r.BlockedOps+r.BlockedResumes+r.Merges+r.MergeFails > 0 {
		fmt.Fprintf(b, "blockedOps=%d blockedResumes=%d parks=%d merges=%d mergeFails=%d\n",
			r.BlockedOps, r.BlockedResumes, r.ParkEvents, r.Merges, r.MergeFails)
	}
	if r.ForcedMisses+r.Sheds+r.Recovered > 0 {
		fmt.Fprintf(b, "forcedMisses=%d sheds=%d recovered=%d retries=%d\n",
			r.ForcedMisses, r.Sheds, r.Recovered, r.Retries)
	}
}

// ServerResult carries a multi-movie run's measurements.
type ServerResult struct {
	// Movies maps movie name to its statistics; Order preserves the
	// configuration order for deterministic reporting.
	Movies map[string]*MovieResult
	Order  []string

	// Shared-resource occupancy across all movies.
	AvgDedicated  float64
	PeakDedicated int
	AvgViewers    float64
	PeakViewers   float64
	BufferPeak    float64

	// Faults is the run's fault/degradation accounting.
	Faults FaultStats
	// DiskLatency is the per-disk service-latency tracking, indexed by
	// disk; empty when no disk op was ever timed.
	DiskLatency []DiskLatency
}

// TotalResumes sums the resume events across movies.
func (r *ServerResult) TotalResumes() uint64 {
	var n uint64
	for _, m := range r.Movies {
		n += m.Hits.N()
	}
	return n
}

// PooledHit returns the hit probability pooled over every movie.
func (r *ServerResult) PooledHit() float64 {
	var hits, trials uint64
	for _, m := range r.Movies {
		hits += m.Hits.Successes()
		trials += m.Hits.N()
	}
	if trials == 0 {
		return 0
	}
	return float64(hits) / float64(trials)
}

// Summary renders a per-movie digest plus the shared-resource footer.
func (r *ServerResult) Summary() string {
	var b strings.Builder
	for _, name := range r.Order {
		fmt.Fprintf(&b, "[%s]\n", name)
		writeMovieSummary(&b, r.Movies[name])
	}
	fmt.Fprintf(&b, "shared: dedicated avg=%.2f peak=%d; viewers avg=%.1f peak=%.0f; buffer peak=%.1f\n",
		r.AvgDedicated, r.PeakDedicated, r.AvgViewers, r.PeakViewers, r.BufferPeak)
	writeFaultSummary(&b, r.Faults)
	writeDiskLatency(&b, r.DiskLatency)
	return b.String()
}

// collectMovie snapshots one movie's accumulators.
func collectMovie(mv *movieState, now float64) *MovieResult {
	r := &MovieResult{
		Hits:           mv.hits,
		HitsByKind:     map[vcr.Kind]metrics.Proportion{},
		EndRuns:        mv.endRuns,
		Waits:          mv.waits,
		MaxWait:        mv.maxWait,
		WaitP50:        mv.waitRes.Quantile(0.5),
		WaitP95:        mv.waitRes.Quantile(0.95),
		QueuedArrivals: mv.queuedArr,
		AvgBatch:       mv.batchTW.Average(now),
		PeakBatch:      mv.batchTW.Max(),
		Arrivals:       mv.arrivals,
		Departures:     mv.departures,
		InSystem:       mv.arrivals - mv.departures,
		BlockedOps:     mv.blockedOps,
		BlockedResumes: mv.blockedResumes,
		ParkEvents:     mv.parkEvents,
		Merges:         mv.merges,
		MergeFails:     mv.mergeFails,
		ForcedMisses:   mv.forcedMisses,
		Sheds:          mv.sheds,
		Recovered:      mv.recovered,
		Retries:        mv.retries,
		StateCounts:    map[string]int{},
		OpPositions:    mv.opPos,
	}
	for k, p := range mv.hitsByKind {
		r.HitsByKind[k] = *p
	}
	for _, v := range mv.viewers {
		r.StateCounts[v.state.String()]++
	}
	return r
}

// collectServer snapshots the whole run.
func (s *Server) collectServer() *ServerResult {
	now := s.k.Now()
	sr := &ServerResult{
		Movies:        map[string]*MovieResult{},
		AvgDedicated:  s.dedicatedTW.Average(now) + s.fluidDedTW.Average(now),
		PeakDedicated: s.dedPeak + int(math.Round(s.fluidDedTW.Max())),
		AvgViewers:    s.viewersTW.Average(now),
		PeakViewers:   s.viewersTW.Max(),
		BufferPeak:    s.pool.Peak(),
	}
	fs := FaultStats{
		DiskFailures:    s.diskFailures,
		DiskRepairs:     s.diskRepairs,
		PartitionsLost:  s.partitionsLost,
		SkippedRestarts: s.skippedRestarts,
		Preempted:       s.preempted,
	}
	var arrivals uint64
	for _, b := range s.backends {
		r := b.collect(s, now)
		sr.Order = append(sr.Order, b.name())
		sr.Movies[b.name()] = r
		fs.Recovered += r.Recovered
		fs.ForcedMisses += r.ForcedMisses
		fs.Shed += r.Sheds
		fs.Retries += r.Retries
		arrivals += r.Arrivals
	}
	for _, fm := range s.fluids {
		fs.SkippedRestarts += fm.Skipped()
	}
	fs.DegradedFraction = s.degradedTW.Average(now)
	fs.Availability = 1 - fs.DegradedFraction
	fs.GrayEvents = s.grayEvents
	if arrivals > 0 {
		fs.ShedRate = float64(fs.Shed) / float64(arrivals)
		fs.ForcedMissRate = float64(fs.ForcedMisses) / float64(arrivals)
	}
	sr.Faults = fs
	for d, a := range s.diskLat {
		if a.ops == 0 {
			continue
		}
		sr.DiskLatency = append(sr.DiskLatency, DiskLatency{
			Disk: d, Ops: a.ops, EWMA: a.ewma, Mean: a.sum / float64(a.ops), Max: a.max,
		})
	}
	return sr
}

// Package fluid implements the fluid/hybrid simulation backend for one
// movie of the VOD server: batch-partition occupancy evolves as an
// analytic fluid level driven by Poisson-moment-corrected cohort draws,
// while discrete events are spent only on the interesting transitions —
// partition restarts, VCR phase-1/2 breakouts of a thinned stream of
// exactly-simulated "particle" viewers, and cohort departures.
//
// The key structural fact the backend exploits: with elastic resources,
// viewers do not interact. The batch partition grid (restarts at
// multiples of T = L/N, each buffering a span w = B/N window) is a
// deterministic function of time, so a resume at position p at time t
// is a hit iff some partition k covers it:
//
//	∃ k ∈ ℕ, max(0, ⌈(t−p−w)/T⌉) ≤ k ≤ ⌊min(t−p, horizon)/T⌋
//
// — a closed form replacing the per-viewer partition scan of the full
// DES. Everything statistical then splits by scale:
//
//   - Aggregate flow (arrivals, waits, concurrent-viewer level, batch
//     occupancy) is accounted per restart cycle with one Poisson draw
//     per arrival class: Q ~ Poisson(λ·g) type-1 viewers queue during
//     the closed window of length g = T − min(w, T) and join at the
//     restart with waits Uniform(0, g); J ~ Poisson(λ·min(w, T))
//     type-2 viewers join the open enrollment window with zero wait.
//     Cohorts leave the level after the current residency estimate,
//     shifted by the cycle half-length so the time-average level stays
//     unbiased (the mean viewer age at accounting time is exactly
//     half the cycle, independent of the open/closed split).
//   - Hit statistics come from particles: a thinned Poisson shadow
//     stream at rate λ_p = min(λ, ParticleRate) of viewers simulated
//     exactly (think → VCR op → resume) against the deterministic
//     partition grid. Each resume is an unbiased Bernoulli hit trial,
//     so no analytic-model bias enters the measured P(hit). Particle
//     dedicated-stream holdings are scaled by λ/λ_p into a fractional
//     occupancy level.
//
// Partition lifecycle stays fully discrete — three events per restart
// interval doing the same disk-slot and buffer-pool accounting as the
// DES backend — so shared-resource bookkeeping is exact.
//
// Every event is typed (see internal/des): the Movie is the receiver,
// and the event kinds below name what fires. Live partitions and
// particles sit in movie-owned tables with free lists, and their events
// carry the table index, so neither a restart nor a particle allocates
// per event.
//
// All randomness is drawn from the shared server rng inside event
// handlers, keeping replay-based checkpoint resume exact.
package fluid

import (
	"fmt"
	"math"
	"math/rand"

	"vodalloc/internal/buffer"
	"vodalloc/internal/des"
	"vodalloc/internal/disk"
	"vodalloc/internal/metrics"
	"vodalloc/internal/vcr"
)

// DefaultParticleRate is the shadow-viewer arrival rate (per minute)
// used when Config.ParticleRate is unset. Two particles a minute over a
// typical measured window yields a few thousand hit trials — a Wilson
// interval of ±2 points — independent of how large λ grows.
const DefaultParticleRate = 2.0

// residencyAlpha is the EWMA gain for the particle-measured viewer
// residency that paces cohort departures.
const residencyAlpha = 0.05

// ErrBadConfig reports an invalid fluid movie configuration.
var errBadConfig = fmt.Errorf("fluid: invalid configuration")

// Config describes one fluid-modeled movie.
type Config struct {
	Name  string
	L, B  float64
	N     int
	Delta float64
	// Lambda is the Poisson arrival rate (viewers/minute). The fluid
	// backend requires a Poisson stream; renewal processes need the DES
	// backend.
	Lambda  float64
	Profile vcr.Profile
	Rates   vcr.Rates
	// ParticleRate is the shadow-viewer rate; 0 selects
	// DefaultParticleRate. The effective rate is min(Lambda,
	// ParticleRate).
	ParticleRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !(c.L > 0) || math.IsInf(c.L, 0):
		return fmt.Errorf("%w: movie %q length %v", errBadConfig, c.Name, c.L)
	case math.IsNaN(c.B) || c.B < 0 || c.B > c.L:
		return fmt.Errorf("%w: movie %q buffer %v outside [0, %v]", errBadConfig, c.Name, c.B, c.L)
	case c.N < 1:
		return fmt.Errorf("%w: movie %q stream count %d", errBadConfig, c.Name, c.N)
	case c.Delta < 0 || math.IsNaN(c.Delta):
		return fmt.Errorf("%w: movie %q delta %v", errBadConfig, c.Name, c.Delta)
	case !(c.Lambda > 0):
		return fmt.Errorf("%w: movie %q arrival rate %v", errBadConfig, c.Name, c.Lambda)
	case c.ParticleRate < 0 || math.IsNaN(c.ParticleRate):
		return fmt.Errorf("%w: movie %q particle rate %v", errBadConfig, c.Name, c.ParticleRate)
	}
	if err := c.Rates.Validate(); err != nil {
		return fmt.Errorf("%w: movie %q: %v", errBadConfig, c.Name, err)
	}
	if c.Profile.Interactive() {
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("%w: movie %q: %v", errBadConfig, c.Name, err)
		}
	}
	return nil
}

// Env is the shared simulation environment a fluid movie plugs into:
// the host server's kernel, rng and resource accounting. ViewersTW and
// DedTW receive this movie's fractional level contributions; Fail
// surfaces a pool accounting error mid-run (the host halts the kernel).
type Env struct {
	K     *des.Kernel
	RNG   *rand.Rand
	Pool  *buffer.Pool
	Disks *disk.Array
	// ViewersTW accumulates the concurrent-viewer level; DedTW the
	// scaled dedicated-stream level. Both shared with the host server.
	ViewersTW *metrics.TimeWeighted
	DedTW     *metrics.TimeWeighted
	Horizon   float64
	Warmup    float64
	Fail      func(err error)
}

// Movie is one movie's fluid state machine. Build with New, arm with
// Start before running the kernel.
type Movie struct {
	cfg Config
	env *Env

	period  float64 // restart interval T = L/N
	span    float64 // partition window w = B/N
	wopen   float64 // open enrollment length min(w, T)
	gap     float64 // closed-window length T − wopen
	lambdaP float64 // particle rate min(λ, ParticleRate); 0 = no particles
	weight  float64 // λ / λ_p occupancy scale

	// Aggregate state.
	level       float64 // current in-system viewer level
	resEWMA     float64 // residency estimate R̂ (minutes in system)
	lastRestart float64
	cohorts     int // pending cohort-departure events
	// parts holds the partitions restarted and not yet expired.
	parts des.Slots[batchPart]

	// Counters (aggregate, full-λ scale).
	arrivals, departures uint64
	queuedArr            uint64
	qMeasured            uint64 // queued arrivals inside the measured window

	// Particle state and measurements (λ_p scale). particles holds the
	// shadow viewers currently in system.
	particles  des.Slots[particle]
	dedLevel   float64
	hits       metrics.Proportion
	hitsByKind map[vcr.Kind]*metrics.Proportion
	endRuns    uint64
	opPos      *metrics.Histogram

	waits   metrics.Welford
	batchTW metrics.TimeWeighted
	skipped uint64
}

// New validates cfg and builds the movie.
func New(cfg Config, env *Env) (*Movie, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opPos, err := metrics.NewHistogram(0, cfg.L, 24)
	if err != nil {
		return nil, fmt.Errorf("%w: movie %q: %v", errBadConfig, cfg.Name, err)
	}
	period := cfg.L / float64(cfg.N)
	span := cfg.B / float64(cfg.N)
	pr := cfg.ParticleRate
	if pr == 0 {
		pr = DefaultParticleRate
	}
	lambdaP := math.Min(cfg.Lambda, pr)
	if !cfg.Profile.Interactive() {
		lambdaP = 0 // no VCR breakouts: the fluid flow alone is exact
	}
	weight := 0.0
	if lambdaP > 0 {
		weight = cfg.Lambda / lambdaP
	}
	return &Movie{
		cfg:     cfg,
		env:     env,
		period:  period,
		span:    span,
		wopen:   math.Min(span, period),
		gap:     math.Max(0, period-math.Min(span, period)),
		lambdaP: lambdaP,
		weight:  weight,
		resEWMA: cfg.L, // pure-playback residency; particles refine it
		hitsByKind: map[vcr.Kind]*metrics.Proportion{
			vcr.FF: {}, vcr.RW: {}, vcr.PAU: {},
		},
		opPos: opPos,
	}, nil
}

// Name returns the movie name.
func (m *Movie) Name() string { return m.cfg.Name }

// Skipped returns the count of batch restarts denied a disk slot
// (mirrors the DES skipped-restart counter; zero on elastic arrays).
func (m *Movie) Skipped() uint64 { return m.skipped }

// Start schedules the initial events: the restart chain, the
// horizon-time flush of the final partial cycle, and (for interactive
// profiles) the particle arrival chain.
func (m *Movie) Start() {
	m.batchTW.Set(0, 0)
	m.scheduleRestart(0)
	m.schedule(m.env.Horizon, evFlush, 0)
	if m.lambdaP > 0 {
		m.scheduleParticle(m.env.RNG.ExpFloat64() / m.lambdaP)
	}
}

func (m *Movie) measuring(t float64) bool { return t >= m.env.Warmup }

// The fluid engine's event kinds, fired by Movie.Fire. The operand of a
// partition event is the partition's index in m.parts, of a particle
// event the particle's index in m.particles, and of a cohort departure
// the cohort's viewer count.
const (
	evFlush des.Kind = iota
	evRestart
	evReadEnd
	evExpire
	evCohortDepart
	evArrival
	evJoin
	evFinish
	evThink
	evResume
)

var eventNames = [...]string{
	evFlush:        "fluid-flush",
	evRestart:      "fluid-restart",
	evReadEnd:      "fluid-readEnd",
	evExpire:       "fluid-expire",
	evCohortDepart: "fluid-cohort-depart",
	evArrival:      "fluid-arrival",
	evJoin:         "fluid-join",
	evFinish:       "fluid-finish",
	evThink:        "fluid-think",
	evResume:       "fluid-resume",
}

// schedule queues one of the movie's events at an internally generated
// time that is never in the past by construction.
func (m *Movie) schedule(at float64, kind des.Kind, arg int) des.Handle {
	h, err := m.env.K.ScheduleEvent(at, 0, m, kind, arg)
	if err != nil {
		panic(fmt.Sprintf("fluid: schedule %s: %v", eventNames[kind], err))
	}
	return h
}

// Fire runs one of the movie's events; it makes the Movie the
// des.Receiver its events are scheduled on.
func (m *Movie) Fire(now float64, kind des.Kind, arg int) {
	switch kind {
	case evFlush:
		m.onFlush(now)
	case evRestart:
		m.onRestart(now)
	case evReadEnd:
		m.parts.At(arg).slot.Release()
		m.batchTW.Add(now, -1)
	case evExpire:
		if err := m.env.Pool.Release(m.parts.Take(arg).gross); err != nil {
			panic(fmt.Sprintf("fluid: pool release failed: %v", err))
		}
	case evCohortDepart:
		m.onCohortDepart(now, uint64(arg))
	case evArrival:
		m.onParticleArrival(now)
	case evJoin:
		m.startWatching(arg, now, 0)
	case evFinish:
		m.particles.At(arg).finishEv = des.Handle{}
		m.departParticle(arg, now)
	case evThink:
		m.onThink(arg, now)
	case evResume:
		m.onResume(arg, now)
	default:
		panic(fmt.Sprintf("fluid: event kind %d", kind))
	}
}

// --- batch partition lifecycle (discrete, exact accounting) -----------

func (m *Movie) scheduleRestart(at float64) {
	if at > m.env.Horizon {
		return
	}
	m.schedule(at, evRestart, 0)
}

// batchPart is one live partition's resources: the batch stream's disk
// slot, held until the read ends, and the buffer charged until expiry.
type batchPart struct {
	slot  disk.Slot
	gross float64
}

func (m *Movie) onRestart(now float64) {
	if now > 0 {
		m.accountCycle(now, m.lastRestart, true)
	}
	m.lastRestart = now

	slot, err := m.env.Disks.Allocate()
	if err != nil {
		// Mirrors the DES skipped-restart path; unreachable on the
		// elastic arrays fluid eligibility requires.
		m.skipped++
		m.scheduleRestart(now + m.period)
		return
	}
	part, err := buffer.NewPartition(now, m.span, m.cfg.Delta, m.cfg.L)
	if err != nil {
		panic(fmt.Sprintf("fluid: partition construction failed: %v", err))
	}
	gross := part.Gross()
	if err := m.env.Pool.Reserve(gross); err != nil {
		slot.Release()
		m.env.Fail(fmt.Errorf("%w: movie %q at t=%.2f: %v", errBadConfig, m.cfg.Name, now, err))
		return
	}
	i := m.parts.Put(batchPart{slot: slot, gross: gross})
	m.batchTW.Add(now, 1)
	// The read ends before the window expires (ExpireTime adds the span),
	// and at a tie the earlier-scheduled read end fires first, so the
	// partition's slot is still in use when evReadEnd reads it.
	m.schedule(part.ReadEndTime(), evReadEnd, i)
	m.schedule(part.ExpireTime(), evExpire, i)
	m.scheduleRestart(now + m.period)
}

// onFlush accounts the partial cycle between the last restart and the
// horizon so end-of-run census counters match the DES population.
func (m *Movie) onFlush(now float64) {
	if now > m.lastRestart {
		// The tail's queued viewers never join (their restart lies past
		// the horizon), exactly like the DES wait queue at horizon.
		m.accountCycle(now, m.lastRestart, false)
	}
}

// accountCycle folds the arrival flow of the cycle [start, now) into
// the aggregate state. join reports whether the cycle ends in a restart
// that admits its queued type-1 viewers (false only for the horizon
// flush of the final partial cycle).
func (m *Movie) accountCycle(now, start float64, join bool) {
	d := now - start
	if !(d > 0) {
		return
	}
	open := math.Min(m.wopen, d)
	gap := d - open
	imm := Poisson(m.env.RNG, m.cfg.Lambda*open)   // type-2: enrollment open
	queued := Poisson(m.env.RNG, m.cfg.Lambda*gap) // type-1: window closed
	m.arrivals += imm + queued
	m.queuedArr += queued
	if imm > 0 && m.measuring(start+open) {
		m.waits.AddBatch(imm, 0, 0)
	}
	if join && queued > 0 && m.measuring(now) {
		// Type-1 waits are Uniform(0, gap): batch-fold their exact
		// first two moments.
		m.waits.AddBatch(queued, gap/2, float64(queued)*gap*gap/12)
		m.qMeasured += queued
	}
	a := float64(imm + queued)
	if a == 0 {
		return
	}
	m.level += a
	m.env.ViewersTW.Add(now, a)
	if !join {
		return // tail cohort: still in system at the horizon
	}
	// The cohort's mean age at accounting time is exactly d/2 (the
	// open/closed split cancels), so departing R̂ − d/2 after now keeps
	// the time-average level unbiased at λ·R̂.
	dep := now + math.Max(0, m.resEWMA-d/2)
	m.cohorts++
	m.schedule(dep, evCohortDepart, int(imm+queued))
}

// onCohortDepart takes a cohort of n viewers out of the level.
func (m *Movie) onCohortDepart(now float64, n uint64) {
	a := float64(n)
	m.cohorts--
	m.level -= a
	m.departures += n
	m.env.ViewersTW.Add(now, -a)
}

// covered reports whether some batch partition buffers position pos at
// time t — the closed-form replacement for the DES partition scan (see
// the package comment for the derivation).
func (m *Movie) covered(t, pos float64) bool {
	if m.span <= 0 {
		return false
	}
	kmin := math.Ceil((t - pos - m.span) / m.period)
	if kmin < 0 {
		kmin = 0
	}
	kmax := math.Floor(math.Min(t-pos, m.env.Horizon) / m.period)
	return kmin <= kmax
}

// enrollmentOpen reports whether the newest partition's enrollment
// window is open at time t (a closed-form newestOpenPartition).
func (m *Movie) enrollmentOpen(t float64) bool {
	if m.span <= 0 {
		return false
	}
	k := math.Floor(t / m.period)
	return t-k*m.period <= m.wopen
}

// --- particles: exactly simulated shadow viewers ----------------------

// particle is one shadow viewer. Its playback kinematics are identical
// to a DES viewer's; only resource holdings are scaled.
type particle struct {
	arrived           float64
	t0, p0            float64 // current playback segment: position p0 at time t0
	ded               bool
	kind              vcr.Kind
	out               vcr.Outcome
	thinkEv, finishEv des.Handle
}

func (m *Movie) scheduleParticle(at float64) {
	if at > m.env.Horizon {
		return
	}
	m.schedule(at, evArrival, 0)
}

// onParticleArrival admits a particle. Its table slot is freed only at
// departure, when none of its events is pending: a queued particle's
// one event is its join, and departParticle cancels the rest.
func (m *Movie) onParticleArrival(now float64) {
	i := m.particles.Put(particle{arrived: now})
	if m.enrollmentOpen(now) {
		m.startWatching(i, now, 0)
	} else if next := (math.Floor(now/m.period) + 1) * m.period; next <= m.env.Horizon {
		m.schedule(next, evJoin, i)
	}
	// else: queued past the final restart; inert until the horizon,
	// like a DES viewer parked in the wait queue.
	m.scheduleParticle(now + m.env.RNG.ExpFloat64()/m.lambdaP)
}

// startWatching begins (or resumes) normal playback from pos. Batch and
// dedicated playback share kinematics — display rate 1 — so the state
// split is carried by p.ded alone.
func (m *Movie) startWatching(i int, now, pos float64) {
	p := m.particles.At(i)
	p.t0, p.p0 = now, pos
	p.finishEv = m.schedule(now+(m.cfg.L-pos), evFinish, i)
	think := m.cfg.Profile.SampleThink(m.env.RNG)
	p.thinkEv = m.schedule(now+think, evThink, i)
}

func (m *Movie) onThink(i int, now float64) {
	p := m.particles.At(i)
	p.thinkEv = des.Handle{}
	pos := p.p0 + (now - p.t0)
	if pos >= m.cfg.L {
		return // finish event fires momentarily
	}
	req := m.cfg.Profile.Sample(m.env.RNG)
	if m.measuring(now) {
		m.opPos.Observe(pos)
	}
	// Phase-1 resources, mirroring the DES policy: FF/RW need a
	// dedicated stream (kept if already held), a pause holds nothing.
	if req.Kind == vcr.PAU {
		m.releaseDed(p, now)
	} else {
		m.acquireDed(p, now)
	}
	m.env.K.Cancel(p.finishEv)
	p.finishEv = des.Handle{}
	p.kind = req.Kind
	p.out = vcr.Apply(req, pos, m.cfg.L, m.cfg.Rates)
	m.schedule(now+p.out.Wall, evResume, i)
}

func (m *Movie) onResume(i int, now float64) {
	p := m.particles.At(i)
	out := p.out
	if out.RanOffEnd {
		m.record(now, p.kind, true)
		if m.measuring(now) {
			m.endRuns++ // a subset of the measured hits, as in the DES
		}
		m.departParticle(i, now)
		return
	}
	if m.covered(now, out.Pos) {
		m.record(now, p.kind, true)
		m.releaseDed(p, now)
		m.startWatching(i, now, out.Pos)
		return
	}
	// Miss: continue on a dedicated stream (elastic — fluid
	// eligibility excludes stream caps, so acquisition cannot fail).
	m.record(now, p.kind, false)
	m.acquireDed(p, now)
	m.startWatching(i, now, out.Pos)
}

func (m *Movie) record(now float64, kind vcr.Kind, hit bool) {
	if !m.measuring(now) {
		return
	}
	m.hits.Observe(hit)
	m.hitsByKind[kind].Observe(hit)
}

func (m *Movie) acquireDed(p *particle, now float64) {
	if p.ded {
		return
	}
	p.ded = true
	m.dedLevel += m.weight
	m.env.DedTW.Add(now, m.weight)
}

func (m *Movie) releaseDed(p *particle, now float64) {
	if !p.ded {
		return
	}
	p.ded = false
	m.dedLevel -= m.weight
	m.env.DedTW.Add(now, -m.weight)
}

func (m *Movie) departParticle(i int, now float64) {
	p := m.particles.At(i)
	m.releaseDed(p, now)
	m.env.K.Cancel(p.thinkEv)
	m.env.K.Cancel(p.finishEv)
	m.resEWMA += residencyAlpha * ((now - p.arrived) - m.resEWMA)
	m.particles.Free(i)
}

// --- collection and state digest --------------------------------------

// Stats is the end-of-run snapshot the host server folds into its
// per-movie result. Hit statistics (Hits, HitsByKind, EndRuns,
// OpPositions) are at particle scale; flow counters (Arrivals,
// Departures, QueuedArrivals) are at full λ scale.
type Stats struct {
	Hits                 metrics.Proportion
	HitsByKind           map[vcr.Kind]metrics.Proportion
	EndRuns              uint64
	Waits                metrics.Welford
	MaxWait              float64
	WaitP50              float64
	WaitP95              float64
	QueuedArrivals       uint64
	AvgBatch, PeakBatch  float64
	Arrivals, Departures uint64
	OpPositions          *metrics.Histogram
	Level                float64 // in-system viewer level at collection time
	Particles            int     // live shadow viewers
	DedLevel             float64 // scaled dedicated-stream level
	Residency            float64 // R̂ residency estimate
	Skipped              uint64
}

// Collect snapshots the movie's statistics at time now (normally the
// horizon). Wait quantiles come from the closed-form wait mixture: mass
// wopen/T at zero, Uniform(0, gap) otherwise.
func (m *Movie) Collect(now float64) Stats {
	st := Stats{
		Hits:           m.hits,
		HitsByKind:     map[vcr.Kind]metrics.Proportion{},
		EndRuns:        m.endRuns,
		Waits:          m.waits,
		QueuedArrivals: m.queuedArr,
		AvgBatch:       m.batchTW.Average(now),
		PeakBatch:      m.batchTW.Max(),
		Arrivals:       m.arrivals,
		Departures:     m.departures,
		OpPositions:    m.opPos,
		Level:          m.level,
		Particles:      m.particles.Len(),
		DedLevel:       m.dedLevel,
		Residency:      m.resEWMA,
		Skipped:        m.skipped,
	}
	for k, p := range m.hitsByKind {
		st.HitsByKind[k] = *p
	}
	if m.gap > 0 {
		f0 := m.wopen / m.period
		q := func(p float64) float64 {
			if p <= f0 {
				return 0
			}
			return (p - f0) / (1 - f0) * m.gap
		}
		st.WaitP50, st.WaitP95 = q(0.50), q(0.95)
		if m.qMeasured > 0 {
			// The run maximum of n Uniform(0, gap) waits has mean
			// gap·n/(n+1); with thousands of queued joiners this is
			// indistinguishable from the gap itself.
			n := float64(m.qMeasured)
			st.MaxWait = m.gap * n / (n + 1)
		}
	}
	return st
}

// Digest folds the movie's replay-relevant state into a checkpoint
// digest via the caller's sinks, in a fixed field order.
func (m *Movie) Digest(u64 func(uint64), f64 func(float64)) {
	u64(m.arrivals)
	u64(m.departures)
	u64(m.queuedArr)
	u64(m.qMeasured)
	u64(m.endRuns)
	u64(m.hits.Successes())
	u64(m.hits.N())
	for _, k := range []vcr.Kind{vcr.FF, vcr.RW, vcr.PAU} {
		u64(m.hitsByKind[k].Successes())
		u64(m.hitsByKind[k].N())
	}
	u64(m.waits.N())
	f64(m.waits.Mean())
	f64(m.batchTW.Value())
	f64(m.level)
	f64(m.dedLevel)
	f64(m.resEWMA)
	f64(m.lastRestart)
	u64(uint64(m.particles.Len()))
	u64(uint64(m.parts.Len()))
	u64(uint64(m.cohorts))
	u64(m.skipped)
}

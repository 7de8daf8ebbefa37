package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vodalloc/internal/buffer"
	"vodalloc/internal/des"
	"vodalloc/internal/disk"
	"vodalloc/internal/faults"
	"vodalloc/internal/fluid"
	"vodalloc/internal/metrics"
	"vodalloc/internal/stream"
	"vodalloc/internal/trace"
	"vodalloc/internal/vcr"
)

// MovieSetup is the per-movie deployment inside a multi-movie server:
// its static-partitioning parameters and its own arrival stream.
type MovieSetup struct {
	Name string
	// L, B, N, Delta mirror Config.
	L, B  float64
	N     int
	Delta float64
	// ArrivalRate is the movie's Poisson arrival rate (viewers/minute).
	ArrivalRate float64
	// Profile is this movie's viewer behaviour.
	Profile vcr.Profile
}

// Validate checks the setup.
func (m MovieSetup) Validate() error {
	switch {
	case !(m.L > 0) || math.IsInf(m.L, 0):
		return fmt.Errorf("%w: movie %q length %v", ErrBadConfig, m.Name, m.L)
	case math.IsNaN(m.B) || m.B < 0 || m.B > m.L:
		return fmt.Errorf("%w: movie %q buffer %v outside [0, %v]", ErrBadConfig, m.Name, m.B, m.L)
	case m.N < 1:
		return fmt.Errorf("%w: movie %q stream count %d", ErrBadConfig, m.Name, m.N)
	case m.Delta < 0 || math.IsNaN(m.Delta):
		return fmt.Errorf("%w: movie %q delta %v", ErrBadConfig, m.Name, m.Delta)
	case !(m.ArrivalRate > 0):
		return fmt.Errorf("%w: movie %q arrival rate %v", ErrBadConfig, m.Name, m.ArrivalRate)
	}
	if m.Profile.Interactive() {
		if err := m.Profile.Validate(); err != nil {
			return fmt.Errorf("%w: movie %q: %v", ErrBadConfig, m.Name, err)
		}
	}
	return nil
}

func (m MovieSetup) span() float64   { return m.B / float64(m.N) }
func (m MovieSetup) period() float64 { return m.L / float64(m.N) }

// StreamsPerDisk is how many I/O streams one disk of the simulated
// array carries, Example 2's figure: a 5 MB/s disk sustains ten 4 Mbps
// MPEG-2 streams. Batch and dedicated streams are placed on disks in
// these units.
const StreamsPerDisk = 10

// ServerConfig parameterizes a whole VOD server hosting several popular
// movies on shared dedicated-stream and buffer resources — the system
// the paper's §5 sizing question provisions.
type ServerConfig struct {
	Movies []MovieSetup
	// Rates are the display rates shared by all movies.
	Rates vcr.Rates
	// Horizon and Warmup as in Config.
	Horizon, Warmup float64
	Seed            int64
	// Piggyback/Slew as in Config, applied to every movie.
	Piggyback bool
	Slew      float64
	// MaxDedicated caps the shared pool of dedicated (phase-1/miss)
	// streams across all movies; 0 = unlimited.
	MaxDedicated int
	// Tracer, when non-nil, receives a structured event at every viewer
	// and stream transition (see internal/trace).
	Tracer trace.Tracer
	// TotalStreams caps the shared disk array's I/O streams across batch
	// and dedicated use combined; 0 leaves the array elastic. A positive
	// cap fixes the disk count fault schedules target:
	// ⌈TotalStreams/StreamsPerDisk⌉ disks.
	TotalStreams int
	// Faults is a deterministic fault schedule injected into the run as
	// DES events (see internal/faults).
	Faults faults.Schedule
	// Engine selects the per-movie simulation backend: EngineDES (the
	// default, also selected by ""), EngineFluid, or EngineHybrid (see
	// engine.go). FluidThreshold is the hybrid popularity cut: movies
	// with ArrivalRate at or above it run on the fluid backend when
	// eligible; 0 disables fluid entirely, reproducing the DES engine
	// exactly. ParticleRate tunes the fluid backend's shadow-viewer
	// sampling rate (0 = fluid.DefaultParticleRate).
	Engine         Engine
	FluidThreshold float64
	ParticleRate   float64
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if len(c.Movies) == 0 {
		return fmt.Errorf("%w: no movies", ErrBadConfig)
	}
	names := map[string]bool{}
	for _, m := range c.Movies {
		if err := m.Validate(); err != nil {
			return err
		}
		if names[m.Name] {
			return fmt.Errorf("%w: duplicate movie name %q", ErrBadConfig, m.Name)
		}
		names[m.Name] = true
	}
	switch {
	case !(c.Horizon > 0):
		return fmt.Errorf("%w: horizon %v", ErrBadConfig, c.Horizon)
	case c.Warmup < 0 || c.Warmup >= c.Horizon:
		return fmt.Errorf("%w: warmup %v outside [0, horizon)", ErrBadConfig, c.Warmup)
	case c.MaxDedicated < 0:
		return fmt.Errorf("%w: max dedicated %d", ErrBadConfig, c.MaxDedicated)
	case c.Piggyback && !(c.slew() > 0 && c.slew() < 1):
		return fmt.Errorf("%w: slew %v outside (0, 1)", ErrBadConfig, c.Slew)
	case c.TotalStreams < 0:
		return fmt.Errorf("%w: total streams %d", ErrBadConfig, c.TotalStreams)
	}
	if err := c.Rates.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return c.validateEngine()
}

// degraded reports whether the run uses the degraded-mode policy:
// bounded retries with backoff, batch-over-VCR preemption, and
// forced-miss fallback instead of the plain block/park behaviour.
func (c ServerConfig) degraded() bool {
	return len(c.Faults) > 0 || c.TotalStreams > 0
}

func (c ServerConfig) slew() float64 {
	if c.Slew == 0 {
		return 0.05
	}
	return c.Slew
}

// Server simulates the full multi-movie VOD system. Build with
// NewServer, execute once with Run.
type Server struct {
	cfg    ServerConfig
	k      des.Kernel
	rng    *rand.Rand
	disks  *disk.Array // shared by batch and dedicated streams
	pool   *buffer.Pool
	movies []*movieState
	// backends lists every movie's backend in configuration order (DES
	// movieStates plus fluid adapters); fluids holds just the
	// fluid-backed movies. For a pure DES run, backends mirrors movies
	// and fluids is empty.
	backends []movieBackend
	fluids   []*fluid.Movie
	fluidEnv *fluid.Env
	// fluidDedTW accumulates the fluid backends' scaled dedicated-stream
	// level, kept apart from dedicatedTW so DES digests stay unchanged.
	fluidDedTW metrics.TimeWeighted
	nextID     uint64
	tr         trace.Tracer
	// tracing is false when the tracer is the Nop default; hot paths
	// skip building fmt.Sprintf details behind it.
	tracing bool

	// dedInUse/dedPeak enforce and report the MaxDedicated cap; the disk
	// array itself is shared with batch streams, so its own peak mixes
	// both classes.
	dedInUse, dedPeak int

	dedicatedTW metrics.TimeWeighted
	viewersTW   metrics.TimeWeighted
	// degradedTW is 1 while at least one disk is failed, 0 otherwise;
	// its time average is the degraded-time fraction.
	degradedTW metrics.TimeWeighted

	// Server-wide fault accounting.
	diskFailures, diskRepairs uint64
	partitionsLost            uint64
	skippedRestarts           uint64
	preempted                 uint64

	bufferErr error // a pool accounting error captured mid-run
	ran       bool

	// coverProbe, when set, sees every coveringPartition lookup and its
	// answer; tests use it to hold the search to a linear scan.
	coverProbe func(mv *movieState, now, pos float64, found *activePart)

	// viewerSlab is the tail of the current viewer allocation block;
	// viewerBlocks records every block handed out, so a finished
	// replication can return them to the process-wide pool.
	viewerSlab   []viewer
	viewerBlocks [][]viewer
}

// viewerSlabBlock is the number of viewer records allocated per slab
// growth.
const viewerSlabBlock = 128

// viewerBlockPool recycles viewer slab blocks across simulator
// instances: replication sweeps construct thousands of Servers, and each
// run's viewer records die with it.
var viewerBlockPool = sync.Pool{New: func() any { return make([]viewer, viewerSlabBlock) }}

// allocViewer hands out the next zeroed slot of the viewer slab. Viewers
// live to the end of the run — the census and the state digest iterate
// them — so slots are never recycled within a run; the slab batches the
// allocations and keeps arrival-order viewers adjacent in memory.
func (s *Server) allocViewer() *viewer {
	if len(s.viewerSlab) == 0 {
		blk := viewerBlockPool.Get().([]viewer)
		s.viewerSlab = blk
		s.viewerBlocks = append(s.viewerBlocks, blk)
	}
	v := &s.viewerSlab[0]
	s.viewerSlab = s.viewerSlab[1:]
	return v
}

// releaseScratch returns the viewer slab blocks to the pool, cleared so
// pooled blocks pin no dead run's objects. Only call once the Server
// and every pointer into its state are dead — Results are safe, they
// copy. Replicate calls this per finished run.
func (s *Server) releaseScratch() {
	for _, blk := range s.viewerBlocks {
		clear(blk)
		viewerBlockPool.Put(blk)
	}
	s.viewerBlocks, s.viewerSlab = nil, nil
}

// movieState carries one movie's batch machinery and measurements. It
// is the receiver of the movie's and its viewers' events (see Fire).
type movieState struct {
	srv   *Server
	setup MovieSetup
	sched stream.Schedule

	parts []*activePart // oldest first: in Start order, which covering relies on
	waitq []*viewer

	viewers []*viewer

	hits       metrics.Proportion
	hitsByKind map[vcr.Kind]*metrics.Proportion
	endRuns    uint64
	waits      metrics.Welford
	waitRes    *metrics.Reservoir
	maxWait    float64
	queuedArr  uint64

	batchTW metrics.TimeWeighted

	// opPos records the movie position at which each VCR request is
	// issued, to audit the model's uniform-position assumption.
	opPos *metrics.Histogram

	arrivals, departures uint64
	blockedOps           uint64
	blockedResumes       uint64
	parkEvents           uint64
	merges, mergeFails   uint64

	// Degraded-mode accounting.
	forcedMisses uint64
	sheds        uint64
	recovered    uint64
	retries      uint64
}

// NewServer validates cfg and builds the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The disk array carries both batch and dedicated streams. The
	// MaxDedicated cap is enforced by a counter, not by the array, so it
	// keeps gating VCR admission even when the array itself is elastic.
	var arr *disk.Array
	var err error
	if cfg.TotalStreams > 0 {
		arr, err = disk.NewLimited(StreamsPerDisk, cfg.TotalStreams)
	} else {
		arr, err = disk.NewElastic(StreamsPerDisk)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = trace.Nop{}
	}
	srv := &Server{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		disks:   arr,
		pool:    buffer.NewElasticPool(),
		tr:      tr,
		tracing: cfg.Tracer != nil,
	}
	for _, ms := range cfg.Movies {
		if cfg.wantsFluid(ms) {
			fm, err := srv.newFluidMovie(ms)
			if err != nil {
				return nil, err
			}
			srv.fluids = append(srv.fluids, fm)
			srv.backends = append(srv.backends, fluidBackend{m: fm})
			continue
		}
		sched, err := stream.NewSchedule(ms.period())
		if err != nil {
			return nil, fmt.Errorf("%w: movie %q: %v", ErrBadConfig, ms.Name, err)
		}
		opPos, err := metrics.NewHistogram(0, ms.L, 24)
		if err != nil {
			return nil, fmt.Errorf("%w: movie %q: %v", ErrBadConfig, ms.Name, err)
		}
		waitRes, err := metrics.NewReservoir(4096, cfg.Seed+int64(len(srv.movies))+1)
		if err != nil {
			return nil, fmt.Errorf("%w: movie %q: %v", ErrBadConfig, ms.Name, err)
		}
		mv := &movieState{
			srv:     srv,
			setup:   ms,
			sched:   sched,
			opPos:   opPos,
			waitRes: waitRes,
			hitsByKind: map[vcr.Kind]*metrics.Proportion{
				vcr.FF: {}, vcr.RW: {}, vcr.PAU: {},
			},
		}
		srv.movies = append(srv.movies, mv)
		srv.backends = append(srv.backends, mv)
	}
	return srv, nil
}

// Run executes the simulation to the horizon and returns the per-movie
// and shared measurements. Single use.
func (s *Server) Run() (*ServerResult, error) {
	return s.RunCtx(context.Background())
}

// ctxCheckEvents is how many simulation events run between context
// checks in RunCtx. The per-event cost of a deadline check would be
// measurable on the hot loop; checking every couple of thousand events
// bounds cancellation latency to well under a millisecond of wall clock
// while keeping the overhead unobservable.
const ctxCheckEvents = 2048

// RunCtx is Run with cancellation checkpoints: the context is consulted
// every ctxCheckEvents simulation events, so a canceled request stops a
// long-horizon run promptly instead of simulating to completion. The
// event sequence up to the stopping point is identical to Run's — the
// checkpoints only observe, never perturb, the schedule.
func (s *Server) RunCtx(ctx context.Context) (*ServerResult, error) {
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	if err := s.k.RunUntilCheck(s.cfg.Horizon, ctxCheckEvents, ctx.Err); err != nil {
		return nil, err
	}
	return s.finish()
}

// begin marks the server used and seeds the initial event schedule. The
// schedule seeded here, plus the seeded RNG, fully determines the event
// sequence — which is what makes replay-based checkpoint restore (see
// snapshot.go) exact.
func (s *Server) begin(ctx context.Context) error {
	if s.ran {
		return fmt.Errorf("%w: server already ran", ErrBadConfig)
	}
	s.ran = true
	if err := ctx.Err(); err != nil {
		return err
	}
	s.dedicatedTW.Set(0, 0)
	s.viewersTW.Set(0, 0)
	s.degradedTW.Set(0, 0)
	if len(s.fluids) > 0 {
		s.fluidDedTW.Set(0, 0)
	}
	s.scheduleFaults()
	for _, b := range s.backends {
		b.start(s)
	}
	return nil
}

// finish surfaces a mid-run pool accounting error and collects results.
func (s *Server) finish() (*ServerResult, error) {
	if s.bufferErr != nil {
		return nil, s.bufferErr
	}
	return s.collectServer(), nil
}

func (s *Server) expGap(mv *movieState) float64 {
	return s.rng.ExpFloat64() / mv.setup.ArrivalRate
}

func (s *Server) measuring(now float64) bool { return now >= s.cfg.Warmup }

// emit sends a trace event; a Nop tracer makes this nearly free.
func (s *Server) emit(now float64, kind trace.Kind, movie string, viewer uint64, pos float64, detail string) {
	s.tr.Trace(trace.Event{Time: now, Kind: kind, Movie: movie, Viewer: viewer, Pos: pos, Detail: detail})
}

// --- batch stream lifecycle -------------------------------------------

func (s *Server) scheduleRestart(mv *movieState, at float64) {
	if at > s.cfg.Horizon {
		return
	}
	s.schedule(at, mv, evRestart, 0)
}

func (s *Server) onRestart(mv *movieState, now float64) {
	ms := mv.setup
	// A batch stream needs an I/O slot before its buffer. When the array
	// is short, allocateBatchSlot preempts dedicated VCR streams (batch
	// has priority); when even that fails the restart is skipped and the
	// queued viewers wait for the next one.
	slot := s.allocateBatchSlot(now)
	if !slot.Held() {
		s.skippedRestarts++
		s.emit(now, trace.Blocked, ms.Name, 0, 0, "batch restart denied")
		s.scheduleRestart(mv, now+ms.period())
		return
	}
	part, err := buffer.NewPartition(now, ms.span(), ms.Delta, ms.L)
	if err != nil {
		panic(fmt.Sprintf("sim: partition construction failed: %v", err)) // validated config makes this unreachable
	}
	if err := s.pool.Reserve(part.Gross()); err != nil {
		// The pool refuses only an invalid charge; stop the run and
		// surface it.
		slot.Release()
		s.bufferErr = fmt.Errorf("%w: movie %q at t=%.2f: %v", ErrBadConfig, ms.Name, now, err)
		s.k.Halt()
		return
	}
	ap := &activePart{id: s.nextID, mv: mv, part: part, slot: slot}
	s.nextID++
	mv.parts = append(mv.parts, ap)
	mv.batchTW.Add(now, 1)
	if s.tracing {
		s.emit(now, trace.BatchStart, ms.Name, 0, 0, fmt.Sprintf("partition=%d", ap.id))
	}

	// Admit the queued type-1 viewers at position 0 (they all coalesce
	// into the partition's first viewer).
	for _, v := range mv.waitq {
		wait := now - v.arrived
		if s.measuring(now) {
			mv.waits.Add(wait)
			mv.waitRes.Observe(wait)
			if wait > mv.maxWait {
				mv.maxWait = wait
			}
		}
		s.joinPartition(mv, now, v, ap, 0)
	}
	mv.waitq = mv.waitq[:0]

	ap.readEndEv = s.schedule(part.ReadEndTime(), ap, evReadEnd, 0)
	ap.expireEv = s.schedule(part.ExpireTime(), ap, evExpire, 0)
	s.scheduleRestart(mv, now+ms.period())
}

// onReadEnd ends a partition's batch stream: the read is done and the
// buffer drains on.
func (s *Server) onReadEnd(ap *activePart, now float64) {
	mv := ap.mv
	ap.readEndEv = noEv
	ap.slot.Release()
	mv.batchTW.Add(now, -1)
	if s.tracing {
		s.emit(now, trace.BatchEnd, mv.setup.Name, 0, mv.setup.L, fmt.Sprintf("partition=%d", ap.id))
	}
}

// onExpire retires a drained partition and returns its buffer.
func (s *Server) onExpire(ap *activePart, now float64) {
	mv := ap.mv
	ap.expireEv = noEv
	ap.gone = true
	if s.tracing {
		s.emit(now, trace.PartitionExpire, mv.setup.Name, 0, mv.setup.L, fmt.Sprintf("partition=%d", ap.id))
	}
	if err := s.pool.Release(ap.part.Gross()); err != nil {
		panic(fmt.Sprintf("sim: pool release failed: %v", err))
	}
	for i, p := range mv.parts {
		if p == ap {
			mv.parts = append(mv.parts[:i], mv.parts[i+1:]...)
			break
		}
	}
}

// --- arrivals ----------------------------------------------------------

func (s *Server) scheduleArrival(mv *movieState, at float64) {
	if at > s.cfg.Horizon {
		return
	}
	s.schedule(at, mv, evArrival, 0)
}

func (s *Server) onArrival(mv *movieState, now float64) {
	mv.arrivals++
	v := s.allocViewer()
	v.id, v.arrived, v.idx = s.nextID, now, len(mv.viewers)
	s.nextID++
	mv.viewers = append(mv.viewers, v)
	s.viewersTW.Add(now, 1)
	s.emit(now, trace.Arrive, mv.setup.Name, v.id, 0, "")

	if ap := s.newestOpenPartition(mv, now); ap != nil {
		if s.measuring(now) {
			mv.waits.Add(0)
			mv.waitRes.Observe(0)
		}
		s.joinPartition(mv, now, v, ap, ap.part.Head(now))
	} else {
		v.state = stateWaiting
		mv.waitq = append(mv.waitq, v)
		mv.queuedArr++
		s.emit(now, trace.Queue, mv.setup.Name, v.id, 0, "")
	}
	s.scheduleArrival(mv, now+s.expGap(mv))
}

// newestOpenPartition returns the youngest partition whose enrollment
// window is open, or nil.
func (s *Server) newestOpenPartition(mv *movieState, now float64) *activePart {
	for i := len(mv.parts) - 1; i >= 0; i-- {
		ap := mv.parts[i]
		if ap.part.Head(now) < 0 {
			continue
		}
		if ap.part.EnrollmentOpen(now) {
			return ap
		}
		return nil // older partitions are even further along
	}
	return nil
}

// --- partition membership ---------------------------------------------

func (s *Server) joinPartition(mv *movieState, now float64, v *viewer, ap *activePart, lag float64) {
	v.state = stateWatching
	v.part = ap
	v.lag = lag
	ap.members++
	pos := ap.part.Head(now) - lag
	if s.tracing {
		s.emit(now, trace.Enroll, mv.setup.Name, v.id, pos, fmt.Sprintf("partition=%d lag=%.3f", ap.id, lag))
	}
	v.finishEv = s.schedule(now+(mv.setup.L-pos), mv, evFinish, v.idx)
	s.scheduleThink(mv, now, v)
}

func (s *Server) leavePartition(v *viewer) {
	if v.part != nil {
		v.part.members--
		v.part = nil
	}
}

func (s *Server) depart(mv *movieState, now float64, v *viewer) {
	s.leavePartition(v)
	s.releaseDedicated(now, v)
	v.cancelTimers(&s.k)
	v.state = stateDone
	mv.departures++
	s.viewersTW.Add(now, -1)
	s.emit(now, trace.Depart, mv.setup.Name, v.id, 0, "")
}

// --- dedicated streams --------------------------------------------------

func (s *Server) acquireDedicated(now float64, v *viewer) bool {
	if s.cfg.MaxDedicated > 0 && s.dedInUse >= s.cfg.MaxDedicated {
		return false
	}
	slot, err := s.disks.Allocate()
	if err != nil {
		return false
	}
	v.slot = slot
	s.dedInUse++
	if s.dedInUse > s.dedPeak {
		s.dedPeak = s.dedInUse
	}
	s.dedicatedTW.Add(now, 1)
	return true
}

func (s *Server) releaseDedicated(now float64, v *viewer) {
	if v.slot.Held() {
		v.slot.Release()
		s.dedInUse--
		s.dedicatedTW.Add(now, -1)
	}
}

// --- VCR lifecycle -------------------------------------------------------

func (s *Server) scheduleThink(mv *movieState, now float64, v *viewer) {
	if !mv.setup.Profile.Interactive() {
		return
	}
	think := mv.setup.Profile.SampleThink(s.rng)
	v.thinkEv = s.schedule(now+think, mv, evThink, v.idx)
}

func (s *Server) onThink(mv *movieState, now float64, v *viewer) {
	if v.state != stateWatching && v.state != stateDedicated {
		return
	}
	pos := v.position(now)
	if pos >= mv.setup.L {
		return // finish event fires momentarily
	}
	req := mv.setup.Profile.Sample(s.rng)
	if s.measuring(now) {
		mv.opPos.Observe(pos)
	}

	// Phase 1 resources: FF/RW display the VCR-version of the movie and
	// need an I/O stream; a paused viewer displays nothing. A viewer
	// already on a dedicated stream keeps it (or releases it to pause).
	if req.Kind == vcr.PAU {
		s.releaseDedicated(now, v)
	} else if !v.slot.Held() {
		if !s.acquireDedicated(now, v) {
			mv.blockedOps++
			s.emit(now, trace.Blocked, mv.setup.Name, v.id, pos, "vcr request")
			if s.cfg.degraded() {
				// Queue the request: retry the acquisition with exponential
				// backoff while the viewer keeps watching from his batch.
				v.pending, v.retries = req, 0
				s.scheduleOpRetry(mv, now, v)
			} else {
				s.scheduleThink(mv, now, v) // request rejected; stay in the batch
			}
			return
		}
	}
	s.leavePartition(v)
	s.k.Cancel(v.finishEv)
	v.finishEv = noEv
	v.state = stateVCR
	v.pending = req
	v.outcome = vcr.Apply(req, pos, mv.setup.L, s.cfg.Rates)
	if s.tracing {
		s.emit(now, trace.VCRStart, mv.setup.Name, v.id, pos, fmt.Sprintf("%s amount=%.2f", req.Kind, req.Amount))
	}
	v.resumeEv = s.schedule(now+v.outcome.Wall, mv, evResume, v.idx)
}

func (s *Server) onResume(mv *movieState, now float64, v *viewer) {
	v.vcrOps++
	kind := v.pending.Kind
	out := v.outcome

	if out.RanOffEnd {
		// Fast-forward to the end: the viewer departs and phase-1
		// resources are released — the P(end) term of Eq. (20)/(21).
		s.emit(now, trace.ResumeHit, mv.setup.Name, v.id, out.Pos, "ran off end")
		s.recordResume(mv, now, kind, true)
		if s.measuring(now) {
			mv.endRuns++ // documented as a subset of the measured hits
		}
		s.depart(mv, now, v)
		return
	}

	if ap := s.coveringPartition(mv, now, out.Pos); ap != nil {
		lag, ok := ap.part.LagOf(now, out.Pos)
		if !ok {
			panic("sim: covering partition refused join")
		}
		s.emit(now, trace.ResumeHit, mv.setup.Name, v.id, out.Pos, kind.String())
		s.recordResume(mv, now, kind, true)
		s.releaseDedicated(now, v)
		s.joinPartition(mv, now, v, ap, lag)
		return
	}

	// Miss: no partition buffer holds the resume position.
	s.emit(now, trace.ResumeMiss, mv.setup.Name, v.id, out.Pos, kind.String())
	s.recordResume(mv, now, kind, false)
	if !v.slot.Held() { // pause held no stream through phase 1
		if !s.acquireDedicated(now, v) {
			mv.blockedResumes++
			s.emit(now, trace.Blocked, mv.setup.Name, v.id, out.Pos, "resume")
			if s.cfg.degraded() {
				// The miss was already recorded above; degrade with bounded
				// retries instead of parking indefinitely.
				s.fallbackToBatch(mv, now, v, out.Pos, false)
			} else {
				s.park(mv, now, v, out.Pos)
			}
			return
		}
	}
	s.continueDedicated(mv, now, v, out.Pos)
}

// continueDedicated resumes normal playback on the viewer's private
// stream, optionally planning a piggyback merge.
func (s *Server) continueDedicated(mv *movieState, now float64, v *viewer, pos float64) {
	v.state = stateDedicated
	v.str = stream.New(v.id, now, pos, 1) // normal playback: 1 movie-min per sim-min
	if s.cfg.Piggyback {
		if plan, ok := s.planMerge(mv, now, pos); ok {
			v.state = stateMerging
			rate := 1 - s.cfg.slew()
			if plan.Ahead {
				rate = 1 + s.cfg.slew()
			}
			v.str.SetRate(now, rate)
			v.at = plan.MergePos
			v.mergeEv = s.schedule(now+plan.Wall, mv, evMerge, v.idx)
			return
		}
	}
	v.finishEv = s.schedule(now+(mv.setup.L-pos), mv, evFinish, v.idx)
	s.scheduleThink(mv, now, v)
}

func (s *Server) planMerge(mv *movieState, now, pos float64) (stream.MergePlan, bool) {
	gapAhead, gapBehind := math.Inf(1), math.Inf(1)
	for _, ap := range mv.parts {
		lo, hi, ok := ap.part.Window(now)
		if !ok {
			continue
		}
		if lo > pos && lo-pos < gapAhead {
			gapAhead = lo - pos
		}
		if hi < pos && pos-hi < gapBehind {
			gapBehind = pos - hi
		}
	}
	return stream.PlanMerge(pos, mv.setup.L, gapAhead, gapBehind, s.cfg.slew())
}

// onMergeDone completes a piggyback merge at the planned position v.at.
func (s *Server) onMergeDone(mv *movieState, now float64, v *viewer) {
	pos := v.at
	if ap := s.coveringPartition(mv, now, pos); ap != nil {
		if lag, ok := ap.part.LagOf(now, pos); ok {
			mv.merges++
			if s.tracing {
				// The stream slewed faster than display rate to catch up
				// with a partition ahead of it.
				s.emit(now, trace.MergeDone, mv.setup.Name, v.id, pos, fmt.Sprintf("ahead=%t", v.str.Rate() > 1))
			}
			s.releaseDedicated(now, v)
			s.joinPartition(mv, now, v, ap, lag)
			return
		}
	}
	// The target window vanished (end-of-movie edge); hold the stream.
	mv.mergeFails++
	v.state = stateDedicated
	v.str.SetRate(now, 1)
	v.finishEv = s.schedule(now+(mv.setup.L-pos), mv, evFinish, v.idx)
	s.scheduleThink(mv, now, v)
}

// park suspends a viewer whose resume was blocked on the dedicated
// stream cap until a partition window sweeps his position.
func (s *Server) park(mv *movieState, now float64, v *viewer, pos float64) {
	v.state = stateParked
	mv.parkEvents++
	at, ok := s.nextCoverTime(mv, now, pos)
	if !ok {
		return // nothing will cover him before the horizon
	}
	v.at = pos
	v.parkEv = s.schedule(at, mv, evUnpark, v.idx)
}

// onUnpark retries a parked viewer's resume at his frozen position v.at.
func (s *Server) onUnpark(mv *movieState, now float64, v *viewer) {
	pos := v.at
	if ap := s.coveringPartition(mv, now, pos); ap != nil {
		if lag, ok := ap.part.LagOf(now, pos); ok {
			s.joinPartition(mv, now, v, ap, lag)
			return
		}
	}
	if s.acquireDedicated(now, v) {
		s.continueDedicated(mv, now, v, pos)
		return
	}
	s.park(mv, now, v, pos)
}

// nextCoverTime returns the earliest time ≥ now at which some current or
// future partition's window covers pos.
func (s *Server) nextCoverTime(mv *movieState, now, pos float64) (float64, bool) {
	best := math.Inf(1)
	for _, ap := range mv.parts {
		h := ap.part.Head(now)
		if h < pos {
			if t := ap.part.Start + pos; t < best {
				best = t
			}
		}
	}
	r := mv.sched.NextRestart(now)
	if r == now {
		r = now + mv.sched.Period()
	}
	if r <= s.cfg.Horizon && r+pos < best {
		best = r + pos
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	// Nudge past the exact boundary so Covers holds strictly.
	return best + 1e-9, true
}

// coveringPartition returns the partition a viewer at pos rejoins at
// time now (see movieState.covering), or nil.
func (s *Server) coveringPartition(mv *movieState, now, pos float64) *activePart {
	ap := mv.covering(now, pos)
	if s.coverProbe != nil {
		s.coverProbe(mv, now, pos, ap)
	}
	return ap
}

// covering returns the first partition, oldest first, whose buffered
// window covers pos at time now, or nil. parts is in Start order, so
// both window bounds, max(0, head−span) and min(head, l), are
// non-increasing along it: the partitions with lo ≤ pos form a suffix,
// found by binary search, and those with hi ≥ pos a prefix, where the
// forward check stops.
func (mv *movieState) covering(now, pos float64) *activePart {
	parts := mv.parts
	i, j := 0, len(parts)
	for i < j {
		m := int(uint(i+j) >> 1)
		if p := parts[m].part; math.Max(0, p.Head(now)-p.Span) > pos {
			i = m + 1
		} else {
			j = m
		}
	}
	for _, ap := range parts[i:] {
		if math.Min(ap.part.Head(now), ap.part.MovieLen) < pos {
			break
		}
		if !ap.gone && ap.part.Covers(now, pos) {
			return ap
		}
	}
	return nil
}

func (s *Server) recordResume(mv *movieState, now float64, kind vcr.Kind, hit bool) {
	if !s.measuring(now) {
		return
	}
	mv.hits.Observe(hit)
	mv.hitsByKind[kind].Observe(hit)
}

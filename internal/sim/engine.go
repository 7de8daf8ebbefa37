package sim

// The simulator offers two per-movie backends behind one server: the
// full discrete-event machinery of server.go, and the fluid/hybrid core
// of internal/fluid, which models aggregate flow analytically and
// spends events only on interesting transitions. The Engine setting
// selects between them — per server (des, fluid) or per movie by
// popularity (hybrid). Both backends share the kernel, rng, disk array
// and buffer pool, so resource accounting and replay-based
// checkpointing work identically; a DES-only configuration takes
// exactly the pre-engine code path, event for event.

import (
	"fmt"
	"math"

	"vodalloc/internal/fluid"
	"vodalloc/internal/metrics"
	"vodalloc/internal/vcr"
)

// Engine selects the per-movie simulation backend.
type Engine string

// The three engine modes. EngineHybrid routes each movie by arrival
// rate: at or above FluidThreshold it runs fluid, below it (or when
// ineligible) it runs full DES.
const (
	EngineDES    Engine = "des"
	EngineFluid  Engine = "fluid"
	EngineHybrid Engine = "hybrid"
)

// ParseEngine parses an engine name; empty selects EngineDES.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineDES:
		return EngineDES, nil
	case EngineFluid:
		return EngineFluid, nil
	case EngineHybrid:
		return EngineHybrid, nil
	}
	return "", fmt.Errorf("%w: unknown engine %q (want des, fluid or hybrid)", ErrBadConfig, s)
}

// engine returns the effective engine.
func (c ServerConfig) engine() Engine {
	if c.Engine == "" {
		return EngineDES
	}
	return c.Engine
}

// fluidBlocker returns why this server configuration cannot host fluid
// movies, or "" when it can. The fluid backend assumes elastic,
// non-interfering resources; every capped, faulted or per-viewer-traced
// feature needs the DES backend.
func (c ServerConfig) fluidBlocker() string {
	switch {
	case len(c.Faults) > 0:
		return "fault schedules need the DES backend"
	case c.TotalStreams > 0:
		return "a TotalStreams cap needs the DES backend"
	case c.MaxDedicated > 0:
		return "a MaxDedicated cap needs the DES backend"
	case c.Piggyback:
		return "piggyback merging needs the DES backend"
	case c.Tracer != nil:
		return "tracing needs the DES backend"
	}
	return ""
}

// wantsFluid decides the backend for one movie. EngineFluid demands it
// (Validate rejects ineligible configurations up front); EngineHybrid
// takes fluid only for movies at or above the popularity threshold on an
// eligible server, falling back to DES otherwise — so a threshold of 0
// reproduces the pure DES engine exactly.
func (c ServerConfig) wantsFluid(ms MovieSetup) bool {
	switch c.engine() {
	case EngineFluid:
		return true
	case EngineHybrid:
		return c.FluidThreshold > 0 && ms.ArrivalRate >= c.FluidThreshold &&
			c.fluidBlocker() == ""
	}
	return false
}

// validateEngine checks the engine fields; called from Validate.
func (c ServerConfig) validateEngine() error {
	if _, err := ParseEngine(string(c.Engine)); err != nil {
		return err
	}
	switch {
	case c.FluidThreshold < 0 || math.IsNaN(c.FluidThreshold):
		return fmt.Errorf("%w: fluid threshold %v", ErrBadConfig, c.FluidThreshold)
	case c.ParticleRate < 0 || math.IsNaN(c.ParticleRate):
		return fmt.Errorf("%w: particle rate %v", ErrBadConfig, c.ParticleRate)
	}
	if c.engine() == EngineFluid {
		if why := c.fluidBlocker(); why != "" {
			return fmt.Errorf("%w: fluid engine: %s", ErrBadConfig, why)
		}
	}
	return nil
}

// movieBackend is the per-movie simulation backend behind the server:
// the concrete DES movieState or a fluid.Movie adapter. The server
// iterates backends in configuration order for lifecycle and
// collection; DES hot paths keep their concrete *movieState.
type movieBackend interface {
	name() string
	start(s *Server)
	collect(s *Server, now float64) *MovieResult
}

func (mv *movieState) name() string { return mv.setup.Name }

// start seeds the movie's initial events; identical to the historical
// begin() body for DES movies.
func (mv *movieState) start(s *Server) {
	mv.batchTW.Set(0, 0)
	s.scheduleRestart(mv, 0)
	s.scheduleArrival(mv, s.expGap(mv))
}

func (mv *movieState) collect(_ *Server, now float64) *MovieResult {
	return collectMovie(mv, now)
}

// fluidBackend adapts a fluid.Movie to the movieBackend interface.
type fluidBackend struct{ m *fluid.Movie }

func (f fluidBackend) name() string    { return f.m.Name() }
func (f fluidBackend) start(_ *Server) { f.m.Start() }

// collect maps the fluid statistics onto the DES result shape. Hit
// statistics are at particle scale, flow counters at full λ scale; the
// census reports the rounded fluid level and the live shadow-particle
// count instead of per-viewer states.
func (f fluidBackend) collect(_ *Server, now float64) *MovieResult {
	st := f.m.Collect(now)
	r := &MovieResult{
		Hits:           st.Hits,
		HitsByKind:     map[vcr.Kind]metrics.Proportion{},
		EndRuns:        st.EndRuns,
		Waits:          st.Waits,
		MaxWait:        st.MaxWait,
		WaitP50:        st.WaitP50,
		WaitP95:        st.WaitP95,
		QueuedArrivals: st.QueuedArrivals,
		AvgBatch:       st.AvgBatch,
		PeakBatch:      st.PeakBatch,
		Arrivals:       st.Arrivals,
		Departures:     st.Departures,
		InSystem:       st.Arrivals - st.Departures,
		StateCounts: map[string]int{
			"fluid":    int(math.Round(st.Level)),
			"particle": st.Particles,
		},
		OpPositions: st.OpPositions,
	}
	for k, p := range st.HitsByKind {
		r.HitsByKind[k] = p
	}
	return r
}

// newFluidMovie builds the fluid backend for one movie, wired into the
// server's shared kernel, rng and resource accounting.
func (s *Server) newFluidMovie(ms MovieSetup) (*fluid.Movie, error) {
	if s.fluidEnv == nil {
		s.fluidEnv = &fluid.Env{
			K:         &s.k,
			RNG:       s.rng,
			Pool:      s.pool,
			Disks:     s.disks,
			ViewersTW: &s.viewersTW,
			DedTW:     &s.fluidDedTW,
			Horizon:   s.cfg.Horizon,
			Warmup:    s.cfg.Warmup,
			Fail: func(err error) {
				s.bufferErr = err
				s.k.Halt()
			},
		}
	}
	return fluid.New(fluid.Config{
		Name:         ms.Name,
		L:            ms.L,
		B:            ms.B,
		N:            ms.N,
		Delta:        ms.Delta,
		Lambda:       ms.ArrivalRate,
		Profile:      ms.Profile,
		Rates:        s.cfg.Rates,
		ParticleRate: s.cfg.ParticleRate,
	}, s.fluidEnv)
}

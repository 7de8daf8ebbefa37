// Package sim implements the discrete-event simulator of the paper's VOD
// server (§4): a static-partitioning batch scheduler with per-partition
// buffering, Poisson viewer arrivals, interactive VCR behaviour, and the
// phase-1/phase-2 resource lifecycle of VCR requests. It measures the
// empirical hit probability the analytic model predicts, along with the
// resource occupancy statistics used by the system-sizing experiments.
//
// Faithfulness notes (the same boundary semantics the paper discusses in
// §4's model-vs-simulation comparison):
//
//   - Viewers arriving after an enrollment window closes queue up and all
//     join the next restart at position 0 ("become part of the first
//     viewer"), so member offsets are not perfectly uniform.
//   - A resume at position 0 is a hit when the youngest partition's
//     enrollment window is still open, which the analytic model
//     conservatively counts as a miss.
//   - A partition's buffered window survives span minutes after its
//     stream head passes the movie end (the drain phase) while trailing
//     viewers finish.
package sim

import (
	"errors"

	"vodalloc/internal/faults"
	"vodalloc/internal/trace"
	"vodalloc/internal/vcr"
)

// ErrBadConfig reports an invalid simulator configuration.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Config parameterizes one simulation run of a single popular movie.
type Config struct {
	// L is the movie length in minutes; B the total playback buffer in
	// movie-minutes; N the number of batch I/O streams (the movie
	// restarts every L/N minutes). These mirror analytic.Config.
	L, B float64
	N    int
	// Delta is the per-partition reserve δ charged to the buffer pool but
	// unusable for enrollment (paper §3.1). Usually 0 in experiments
	// because the paper nets it out of B.
	Delta float64
	// Rates are the display rates (PB, FF, RW).
	Rates vcr.Rates
	// ArrivalRate is the Poisson arrival rate λ of viewers per minute
	// (the paper's §4 experiments use 1/λ = 2 minutes).
	ArrivalRate float64
	// Profile describes VCR behaviour. A profile with nil Think issues no
	// VCR requests (pure normal playback).
	Profile vcr.Profile
	// Horizon is the simulated duration in minutes; Warmup discards
	// measurements before that time.
	Horizon, Warmup float64
	// Seed seeds the run's random number generator.
	Seed int64
	// Piggyback enables rate-slewing merges after a miss [7]; Slew is the
	// display-rate adjustment fraction (default 0.05 when Piggyback).
	Piggyback bool
	Slew      float64
	// MaxDedicated caps concurrent dedicated (phase-1) I/O streams;
	// 0 means unlimited (the experiments measure demand rather than
	// enforce a budget).
	MaxDedicated int
	// Tracer, when non-nil, receives a structured event at every viewer
	// and stream transition (see internal/trace).
	Tracer trace.Tracer
	// TotalStreams caps the shared disk array's I/O streams across batch
	// and dedicated use combined; 0 leaves the array elastic. A positive
	// cap fixes the disk count, ⌈TotalStreams/StreamsPerDisk⌉, which is
	// what fault schedules target.
	TotalStreams int
	// Faults is a deterministic fault schedule injected into the run as
	// DES events (see internal/faults). A non-empty schedule enables the
	// degraded-mode policy: bounded retries with exponential backoff,
	// batch-over-VCR preemption, and forced-miss fallback.
	Faults faults.Schedule
	// Engine selects the simulation backend (des, fluid or hybrid; ""
	// means des), FluidThreshold the hybrid popularity cut, and
	// ParticleRate the fluid shadow-viewer sampling rate. See
	// ServerConfig for the full semantics.
	Engine         Engine
	FluidThreshold float64
	ParticleRate   float64
}

// Validate checks the configuration: that of its one-movie server.
func (c Config) Validate() error { return c.server().Validate() }

// server is the one-movie server configuration the run executes; the
// movie is named "movie".
func (c Config) server() ServerConfig {
	return ServerConfig{
		Movies: []MovieSetup{{
			Name: "movie", L: c.L, B: c.B, N: c.N, Delta: c.Delta,
			ArrivalRate: c.ArrivalRate, Profile: c.Profile,
		}},
		Rates:          c.Rates,
		Horizon:        c.Horizon,
		Warmup:         c.Warmup,
		Seed:           c.Seed,
		Piggyback:      c.Piggyback,
		Slew:           c.Slew,
		MaxDedicated:   c.MaxDedicated,
		Tracer:         c.Tracer,
		TotalStreams:   c.TotalStreams,
		Faults:         c.Faults,
		Engine:         c.Engine,
		FluidThreshold: c.FluidThreshold,
		ParticleRate:   c.ParticleRate,
	}
}

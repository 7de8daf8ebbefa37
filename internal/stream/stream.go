// Package stream provides the playback-stream abstractions under the VOD
// simulator: piecewise-linear playback positions with rate changes, the
// periodic batch restart schedule of the static partitioning policy, and
// the piggybacking merge arithmetic [7] used as the fallback when a
// viewer resumes outside every partition (a miss) and must be merged
// back into a batch by slewing his display rate.
package stream

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParam reports invalid parameters.
var ErrBadParam = errors.New("stream: invalid parameter")

// Stream models a playback position that advances linearly in simulation
// time at a settable rate (movie-minutes per simulated minute). Rate
// changes re-anchor the line; positions are exact, not accumulated.
type Stream struct {
	id       uint64
	baseTime float64
	basePos  float64
	rate     float64
}

// New creates a stream at startPos advancing at rate from startTime. A
// Stream is a value; its holder keeps it in place and allocates nothing.
func New(id uint64, startTime, startPos, rate float64) Stream {
	return Stream{id: id, baseTime: startTime, basePos: startPos, rate: rate}
}

// ID returns the stream identifier.
func (s *Stream) ID() uint64 { return s.id }

// Rate returns the current playback rate.
func (s *Stream) Rate() float64 { return s.rate }

// Position returns the playback position at time now (now must not
// precede the last anchor; earlier queries extrapolate backwards, which
// callers avoid).
func (s *Stream) Position(now float64) float64 {
	return s.basePos + (now-s.baseTime)*s.rate
}

// SetRate changes the playback rate at time now, anchoring the current
// position.
func (s *Stream) SetRate(now, rate float64) {
	s.basePos = s.Position(now)
	s.baseTime = now
	s.rate = rate
}

// Halt freezes the stream at its current position (rate 0), modeling a
// starved viewer whose I/O feed was lost in degraded mode. Resume with
// SetRate.
func (s *Stream) Halt(now float64) { s.SetRate(now, 0) }

// Halted reports whether the stream is frozen.
func (s *Stream) Halted() bool { return s.rate == 0 }

// Seek jumps to a new position at time now without changing the rate.
func (s *Stream) Seek(now, pos float64) {
	s.basePos = pos
	s.baseTime = now
}

// TimeToReach returns the simulation time at which the stream reaches
// pos at its current rate, with ok=false when it never will (wrong
// direction or zero rate).
func (s *Stream) TimeToReach(now, pos float64) (float64, bool) {
	cur := s.Position(now)
	if s.rate == 0 {
		return 0, cur == pos
	}
	dt := (pos - cur) / s.rate
	if dt < 0 {
		return 0, false
	}
	return now + dt, true
}

// Schedule is the periodic batch restart schedule: the movie is started
// at times k·Period for k = 0, 1, 2, … (paper §2: restart every l/n).
type Schedule struct {
	period float64
}

// NewSchedule creates a schedule with the given restart period.
func NewSchedule(period float64) (Schedule, error) {
	if !(period > 0) || math.IsInf(period, 0) {
		return Schedule{}, fmt.Errorf("%w: period %v", ErrBadParam, period)
	}
	return Schedule{period: period}, nil
}

// Period returns the restart period.
func (s Schedule) Period() float64 { return s.period }

// NextRestart returns the first restart time at or after now.
func (s Schedule) NextRestart(now float64) float64 {
	if now <= 0 {
		return 0
	}
	k := math.Ceil(now / s.period)
	t := k * s.period
	// Guard against floating point pushing us a full period late when now
	// is already (numerically) a restart instant.
	if t-now >= s.period-1e-12 && math.Mod(now, s.period) < 1e-9 {
		return now
	}
	return t
}

// MergePlan describes a piggyback merge: the viewer's display rate is
// slewed by ±Slew (fraction of normal rate) until a partition window
// reaches him, after which the dedicated stream is released.
type MergePlan struct {
	// Ahead is true when the viewer speeds up to catch the partition in
	// front, false when he slows down so the partition behind catches up.
	Ahead bool
	// Wall is the merge duration in simulated minutes.
	Wall float64
	// MergePos is the movie position at which the merge completes.
	MergePos float64
}

// PlanMerge picks the cheaper piggyback merge for a viewer at movie
// position pos. gapAhead is the distance to the trailing edge of the
// nearest buffered window strictly ahead (∞ or negative when none);
// gapBehind is the distance down to the head of the nearest window
// strictly behind. slew is the display-rate adjustment fraction (e.g.
// 0.05 for ±5%, the user-transparent range piggybacking assumes [7]).
// The plan is only valid if the merge completes before the movie ends;
// ok=false means the viewer must hold the dedicated stream to the end.
func PlanMerge(pos, l, gapAhead, gapBehind, slew float64) (MergePlan, bool) {
	if !(slew > 0) || !(l > 0) || pos < 0 || pos > l {
		return MergePlan{}, false
	}
	best := MergePlan{Wall: math.Inf(1)}
	ok := false
	if gapAhead >= 0 && !math.IsInf(gapAhead, 0) {
		// Viewer at rate 1+slew, window edge at rate 1: closes at slew.
		wall := gapAhead / slew
		mergePos := pos + (1+slew)*wall
		if mergePos <= l && wall < best.Wall {
			best = MergePlan{Ahead: true, Wall: wall, MergePos: mergePos}
			ok = true
		}
	}
	if gapBehind >= 0 && !math.IsInf(gapBehind, 0) {
		// Viewer at rate 1−slew, window head behind at rate 1.
		wall := gapBehind / slew
		mergePos := pos + (1-slew)*wall
		if mergePos <= l && wall < best.Wall {
			best = MergePlan{Ahead: false, Wall: wall, MergePos: mergePos}
			ok = true
		}
	}
	if !ok {
		return MergePlan{}, false
	}
	return best, true
}

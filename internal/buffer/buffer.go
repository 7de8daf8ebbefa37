// Package buffer implements the static partitioned buffer management of
// Rotem & Zhao [12] as adopted by the paper (§2): each batch I/O stream
// owns a partition of server memory that retains the most recent span
// minutes of the movie behind the stream head, so that viewers who
// arrived during the enrollment window — and viewers resuming from VCR
// operations who land inside the retained window — read from memory
// instead of consuming a disk stream.
//
// The package provides two pieces: Pool, which accounts for buffer use
// in movie-minutes and records its peak (with an optional per-partition
// reserve δ that keeps the first viewer from overwriting frames the last
// viewer has not consumed, paper §3.1); and Partition, the pure window
// arithmetic of one batch stream including the end-of-movie drain phase
// (the buffered window survives for span minutes after the stream head
// passes the end while trailing viewers finish).
package buffer

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParam reports invalid parameters.
var ErrBadParam = errors.New("buffer: invalid parameter")

// Pool accounts for buffer use measured in movie-minutes. It grows on
// demand and records the peak, which is the buffer a run needed.
type Pool struct {
	used float64
	peak float64
}

// NewElasticPool creates an empty pool.
func NewElasticPool() *Pool {
	return &Pool{}
}

// Reserve adds minutes to the pool's use.
func (p *Pool) Reserve(minutes float64) error {
	if !(minutes >= 0) || math.IsInf(minutes, 0) {
		return fmt.Errorf("%w: reserve %v", ErrBadParam, minutes)
	}
	p.used += minutes
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// Release returns minutes to the pool. Releasing more than is in use
// indicates an accounting bug and returns ErrBadParam.
func (p *Pool) Release(minutes float64) error {
	if !(minutes >= 0) || minutes > p.used+1e-9 {
		return fmt.Errorf("%w: release %v with %v in use", ErrBadParam, minutes, p.used)
	}
	p.used = math.Max(0, p.used-minutes)
	return nil
}

// InUse returns the minutes currently reserved.
func (p *Pool) InUse() float64 { return p.used }

// Peak returns the maximum reservation level observed.
func (p *Pool) Peak() float64 { return p.peak }

// Partition is the buffered window of one batch stream. The stream
// starts at simulation time Start at movie position 0 and advances at
// the normal playback rate (1 movie-minute per simulated minute). The
// partition retains the Span most recent minutes. Delta is the reserved
// slack (paper's δ) charged to the pool but not usable for enrollment.
type Partition struct {
	Start    float64 // simulation time the stream began
	Span     float64 // usable retained window, movie-minutes (B/n)
	Delta    float64 // per-partition reserve δ (gross = Span + Delta)
	MovieLen float64 // l
}

// NewPartition validates and builds a partition.
func NewPartition(start, span, delta, movieLen float64) (*Partition, error) {
	switch {
	case !(movieLen > 0):
		return nil, fmt.Errorf("%w: movie length %v", ErrBadParam, movieLen)
	case !(span >= 0) || span > movieLen:
		return nil, fmt.Errorf("%w: span %v for movie %v", ErrBadParam, span, movieLen)
	case !(delta >= 0):
		return nil, fmt.Errorf("%w: delta %v", ErrBadParam, delta)
	case math.IsNaN(start) || math.IsInf(start, 0):
		return nil, fmt.Errorf("%w: start %v", ErrBadParam, start)
	}
	return &Partition{Start: start, Span: span, Delta: delta, MovieLen: movieLen}, nil
}

// Gross returns the pool charge for this partition (Span + Delta).
func (p *Partition) Gross() float64 { return p.Span + p.Delta }

// Head returns the stream-head movie position at time now; it runs
// virtually past the movie end during the drain phase. Before Start it
// is negative (the stream has not begun).
func (p *Partition) Head(now float64) float64 { return now - p.Start }

// Reading reports whether the underlying I/O stream is still reading
// from disk at time now (head within [0, MovieLen]).
func (p *Partition) Reading(now float64) bool {
	h := p.Head(now)
	return h >= 0 && h <= p.MovieLen
}

// ReadEndTime returns the time the I/O stream finishes reading the movie.
func (p *Partition) ReadEndTime() float64 { return p.Start + p.MovieLen }

// ExpireTime returns the time the partition's buffered window empties:
// span minutes after the head passes the end, when the last possible
// enrolled viewer finishes (drain phase end).
func (p *Partition) ExpireTime() float64 { return p.Start + p.MovieLen + p.Span }

// Expired reports whether the partition is gone at time now.
func (p *Partition) Expired(now float64) bool { return now >= p.ExpireTime() }

// Window returns the movie interval [lo, hi] buffered at time now, with
// ok=false when the partition holds nothing (not started or expired).
// Early in the stream the window is [0, head] (the enrollment window is
// still open); late it is [head−span, MovieLen] while draining.
func (p *Partition) Window(now float64) (lo, hi float64, ok bool) {
	h := p.Head(now)
	if h < 0 || p.Expired(now) {
		return 0, 0, false
	}
	lo = math.Max(0, h-p.Span)
	hi = math.Min(h, p.MovieLen)
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// Covers reports whether movie position pos can be served from the
// partition's buffer at time now — the paper's hit condition.
func (p *Partition) Covers(now, pos float64) bool {
	lo, hi, ok := p.Window(now)
	return ok && pos >= lo && pos <= hi
}

// EnrollmentOpen reports whether a newly arriving viewer can still join
// this partition and watch from the beginning (head within the usable
// window, paper §2: the viewer enrollment window).
func (p *Partition) EnrollmentOpen(now float64) bool {
	h := p.Head(now)
	return h >= 0 && h <= p.Span
}

// LagOf returns the viewer lag (head − pos) a viewer joining at movie
// position pos at time now would hold, and whether the join is valid.
func (p *Partition) LagOf(now, pos float64) (float64, bool) {
	if !p.Covers(now, pos) {
		return 0, false
	}
	return p.Head(now) - pos, true
}

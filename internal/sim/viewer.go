package sim

import (
	"vodalloc/internal/buffer"
	"vodalloc/internal/des"
	"vodalloc/internal/disk"
	"vodalloc/internal/stream"
	"vodalloc/internal/vcr"
)

// viewerState tracks where a viewer's frames come from.
type viewerState int

const (
	// stateWaiting: arrived after the enrollment window closed, queued
	// for the next restart (a type-1 viewer).
	stateWaiting viewerState = iota
	// stateWatching: normal playback served from a partition's buffer
	// (enrolled type-2 viewer, or type-1 after the restart).
	stateWatching
	// stateVCR: phase 1 of a VCR operation, on dedicated resources.
	stateVCR
	// stateDedicated: normal playback on a dedicated I/O stream after a
	// miss (phase 2 failed to release resources).
	stateDedicated
	// stateMerging: piggyback merge in progress (slewed display rate).
	stateMerging
	// stateParked: resume blocked on the dedicated-stream cap; waiting
	// for a partition window to sweep the viewer's position.
	stateParked
	// stateDegraded: lost (or never got) dedicated resources in degraded
	// mode; starved at a frozen position, retrying with backoff until a
	// partition covers him, a stream frees up, or he is shed.
	stateDegraded
	// stateDone: finished or departed.
	stateDone
)

func (s viewerState) String() string {
	switch s {
	case stateWaiting:
		return "waiting"
	case stateWatching:
		return "watching"
	case stateVCR:
		return "vcr"
	case stateDedicated:
		return "dedicated"
	case stateMerging:
		return "merging"
	case stateParked:
		return "parked"
	case stateDegraded:
		return "degraded"
	case stateDone:
		return "done"
	default:
		return "unknown"
	}
}

// viewer is one customer of the VOD server.
type viewer struct {
	id      uint64
	arrived float64
	state   viewerState
	// idx is the viewer's index in its movie's viewers: the operand of
	// its typed events.
	idx int

	// Watching state: membership of a batch partition.
	part *activePart
	lag  float64

	// Dedicated/merging state: a private playback stream and the I/O
	// slot carrying it, both held by value.
	str  stream.Stream
	slot disk.Slot

	// pending is the VCR request in flight (stateVCR), or queued for a
	// backoff retry while opRetryEv is pending; outcome is its effect.
	pending vcr.Request
	outcome vcr.Outcome
	// at is the movie position the viewer's pending merge, unpark or
	// degraded retry acts at.
	at float64

	// Cancellable scheduled events.
	finishEv, thinkEv, resumeEv, mergeEv, parkEv des.Handle
	// opRetryEv is the pending backoff retry of a blocked VCR request
	// (degraded mode; the viewer stays watching meanwhile).
	opRetryEv des.Handle

	// retries counts backoff attempts of the current retry chain: a
	// degraded episode's, or a queued VCR request's. The two never
	// overlap — a queued request waits in stateWatching.
	retries int

	// vcrOps counts completed VCR operations, for behaviour stats.
	vcrOps int
}

// position returns the viewer's movie position at time now; only valid
// in watching, dedicated or merging states.
func (v *viewer) position(now float64) float64 {
	switch v.state {
	case stateWatching:
		return v.part.part.Head(now) - v.lag
	case stateDedicated, stateMerging:
		return v.str.Position(now)
	default:
		return 0
	}
}

// noEv is the inert zero handle; assigning it releases nothing (stale
// cancels are no-ops) but keeps the field state readable.
var noEv des.Handle

// cancelTimers cancels every pending event of the viewer.
func (v *viewer) cancelTimers(k *des.Kernel) {
	k.Cancel(v.finishEv)
	k.Cancel(v.thinkEv)
	k.Cancel(v.resumeEv)
	k.Cancel(v.mergeEv)
	k.Cancel(v.parkEv)
	k.Cancel(v.opRetryEv)
	v.finishEv, v.thinkEv, v.resumeEv, v.mergeEv, v.parkEv, v.opRetryEv = noEv, noEv, noEv, noEv, noEv, noEv
}

// activePart is a live batch stream with its buffer partition, disk
// bookkeeping, and member count. It is the receiver of its own
// lifecycle events (see Fire).
type activePart struct {
	id      uint64
	mv      *movieState
	part    *buffer.Partition
	members int
	// slot is the batch stream's I/O slot, held from restart until the
	// read completes (zero afterwards, and during the drain phase).
	slot disk.Slot
	// readEndEv and expireEv are the partition's lifecycle events, kept
	// so fault injection can kill a partition early.
	readEndEv, expireEv des.Handle
	// expired is flipped by the expiry event; defensive double-check for
	// coverage queries racing the removal.
	gone bool
}

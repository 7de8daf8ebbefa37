// Package trace provides structured event tracing for the VOD server
// simulator: a Tracer interface the simulator calls at every viewer and
// stream transition, an in-memory Recorder for tests and debugging,
// and a line-oriented Writer for offline analysis.
package trace

import (
	"fmt"
	"io"
	"sync"
)

// Kind classifies a simulation event.
type Kind int

// The traced transitions.
const (
	// Arrive: a viewer entered the system.
	Arrive Kind = iota
	// Enroll: a viewer joined a partition (type-2 arrival, type-1
	// admission at restart, or a post-VCR rejoin).
	Enroll
	// Queue: a viewer queued for the next restart (type-1 arrival).
	Queue
	// BatchStart: a batch I/O stream and its partition started.
	BatchStart
	// BatchEnd: a batch stream finished reading (drain begins).
	BatchEnd
	// PartitionExpire: a partition's buffered window emptied.
	PartitionExpire
	// VCRStart: a viewer began a VCR operation (phase 1).
	VCRStart
	// ResumeHit: phase 2 ended with a hit (resources released).
	ResumeHit
	// ResumeMiss: phase 2 ended with a miss.
	ResumeMiss
	// MergeDone: a piggyback merge returned a viewer to a batch.
	MergeDone
	// Depart: a viewer left the system.
	Depart
	// Blocked: a request was rejected on the dedicated-stream cap.
	Blocked
	// DiskFail: an injected fault took a disk out of service.
	DiskFail
	// DiskRepair: a failed disk returned to service.
	DiskRepair
	// Glitch: injected transient allocation faults became pending.
	Glitch
	// BufferLost: a buffer partition was destroyed (disk failure the
	// batch stream could not be re-admitted around, or injected loss).
	BufferLost
	// Preempt: a dedicated VCR stream was preempted so a batch stream
	// could be re-admitted (batch has priority in degraded mode).
	Preempt
	// ForcedMiss: a viewer fell back to pure batching after losing (or
	// never getting) dedicated resources in degraded mode.
	ForcedMiss
	// Shed: a degraded viewer exhausted his retries and was dropped.
	Shed
	// Recovered: a degraded viewer regained a dedicated stream.
	Recovered
	// Gray: a gray fault (slow disk, jitter, brownout) was applied or
	// cleared on a disk.
	Gray
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Arrive:
		return "arrive"
	case Enroll:
		return "enroll"
	case Queue:
		return "queue"
	case BatchStart:
		return "batch-start"
	case BatchEnd:
		return "batch-end"
	case PartitionExpire:
		return "partition-expire"
	case VCRStart:
		return "vcr-start"
	case ResumeHit:
		return "resume-hit"
	case ResumeMiss:
		return "resume-miss"
	case MergeDone:
		return "merge-done"
	case Depart:
		return "depart"
	case Blocked:
		return "blocked"
	case DiskFail:
		return "disk-fail"
	case DiskRepair:
		return "disk-repair"
	case Glitch:
		return "glitch"
	case BufferLost:
		return "buffer-lost"
	case Preempt:
		return "preempt"
	case ForcedMiss:
		return "forced-miss"
	case Shed:
		return "shed"
	case Recovered:
		return "recovered"
	case Gray:
		return "gray"
	default:
		return "unknown"
	}
}

// Event is one traced transition.
type Event struct {
	Time   float64
	Kind   Kind
	Movie  string
	Viewer uint64 // 0 when not viewer-scoped
	Pos    float64
	Detail string
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("t=%.3f %s movie=%s viewer=%d pos=%.3f %s",
		e.Time, e.Kind, e.Movie, e.Viewer, e.Pos, e.Detail)
}

// Tracer receives simulation events. Implementations must tolerate
// high call rates; the simulator invokes Trace synchronously.
type Tracer interface {
	Trace(Event)
}

// Nop is a Tracer that discards everything.
type Nop struct{}

// Trace implements Tracer.
func (Nop) Trace(Event) {}

// Recorder keeps every event in memory. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Trace implements Tracer.
func (r *Recorder) Trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a copy of the retained events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// CountByKind tallies the retained events.
func (r *Recorder) CountByKind() map[Kind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[Kind]int{}
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// Writer streams each event as one line to an io.Writer.
type Writer struct {
	W io.Writer
	// Err holds the first write error; tracing continues silently after.
	Err error
}

// Trace implements Tracer.
func (w *Writer) Trace(e Event) {
	if _, err := fmt.Fprintln(w.W, e.String()); err != nil && w.Err == nil {
		w.Err = err
	}
}

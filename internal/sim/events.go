package sim

import (
	"fmt"

	"vodalloc/internal/des"
)

// The sim engine's event kinds. A movie's arrival and restart chains
// and every per-viewer event fire through movieState.Fire, with the
// viewer's index in the movie's viewers as the operand; a partition's
// read end and expiry fire through activePart.Fire; a scheduled fault
// fires through faultTimeline.Fire, with its index in the time-sorted
// schedule as the operand.
const (
	evRestart des.Kind = iota
	evArrival
	evReadEnd
	evExpire
	evFinish
	evThink
	evResume
	evMerge
	evUnpark
	evDegradedRetry
	evOpRetry
	evFault
)

var eventNames = [...]string{
	evRestart:       "restart",
	evArrival:       "arrival",
	evReadEnd:       "readEnd",
	evExpire:        "expire",
	evFinish:        "finish",
	evThink:         "think",
	evResume:        "resume",
	evMerge:         "merge",
	evUnpark:        "unpark",
	evDegradedRetry: "degradedRetry",
	evOpRetry:       "opRetry",
	evFault:         "fault",
}

// schedule queues a typed event at an internally generated time that is
// never in the past by construction.
func (s *Server) schedule(at float64, r des.Receiver, kind des.Kind, arg int) des.Handle {
	h, err := s.k.ScheduleEvent(at, 0, r, kind, arg)
	if err != nil {
		panic(fmt.Sprintf("sim: schedule %s: %v", eventNames[kind], err))
	}
	return h
}

// Fire runs one of the movie's events: the arrival and restart chains,
// or an event of the viewer at index arg.
func (mv *movieState) Fire(now float64, kind des.Kind, arg int) {
	s := mv.srv
	switch kind {
	case evRestart:
		s.onRestart(mv, now)
		return
	case evArrival:
		s.onArrival(mv, now)
		return
	}
	v := mv.viewers[arg]
	switch kind {
	case evFinish:
		v.finishEv = noEv
		s.depart(mv, now, v)
	case evThink:
		v.thinkEv = noEv
		s.onThink(mv, now, v)
	case evResume:
		v.resumeEv = noEv
		s.onResume(mv, now, v)
	case evMerge:
		v.mergeEv = noEv
		s.onMergeDone(mv, now, v)
	case evUnpark:
		v.parkEv = noEv
		s.onUnpark(mv, now, v)
	case evDegradedRetry:
		v.parkEv = noEv
		s.onDegradedRetry(mv, now, v)
	case evOpRetry:
		v.opRetryEv = noEv
		s.onOpRetry(mv, now, v)
	default:
		panic(fmt.Sprintf("sim: movie event kind %d", kind))
	}
}

// Fire runs one of the partition's lifecycle events.
func (ap *activePart) Fire(now float64, kind des.Kind, _ int) {
	switch kind {
	case evReadEnd:
		ap.mv.srv.onReadEnd(ap, now)
	case evExpire:
		ap.mv.srv.onExpire(ap, now)
	default:
		panic(fmt.Sprintf("sim: partition event kind %d", kind))
	}
}

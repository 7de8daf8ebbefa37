package sim

// Fault injection and the degraded-mode policy. Fault schedules
// (internal/faults) are turned into ordinary DES events at Run start, so
// a faulted run is replayable bit-for-bit from (config, seed, schedule).
//
// The policy on disk failure follows the reservation logic of the paper
// inverted: batch streams carry N/L of the viewer population per slot
// while a dedicated stream carries one viewer, so batch streams are
// re-admitted onto surviving disks first — preempting dedicated VCR
// streams if necessary — and displaced viewers fall back to pure
// batching (a forced miss) with bounded, exponentially backed-off
// retries before being shed.

import (
	"errors"
	"fmt"

	"vodalloc/internal/des"
	"vodalloc/internal/disk"
	"vodalloc/internal/faults"
	"vodalloc/internal/trace"
	"vodalloc/internal/vcr"
)

// maxFaultRetries bounds the backoff chain of a degraded viewer or a
// queued VCR request before it is shed/abandoned. The delays come from
// disk.RetryBackoff (attempt k waits 0.5·2^k simulated minutes), the
// shared policy for retrying transient allocation failures.
const maxFaultRetries = 6

// faultTimeline is the receiver of a run's fault events: the schedule
// in time order, each event posted as one evFault whose operand is its
// index here.
type faultTimeline struct {
	srv    *Server
	events faults.Schedule
}

// Fire injects the scheduled fault at index arg.
func (tl *faultTimeline) Fire(now float64, _ des.Kind, arg int) {
	tl.srv.onFault(tl.events[arg], now)
}

// scheduleFaults turns the configured fault schedule into DES events,
// one per event inside the horizon.
func (s *Server) scheduleFaults() {
	tl := &faultTimeline{srv: s, events: s.cfg.Faults.Sorted()}
	for i, e := range tl.events {
		if e.At <= s.cfg.Horizon {
			s.schedule(e.At, tl, evFault, i)
		}
	}
}

func (s *Server) onFault(e faults.Event, now float64) {
	switch e.Kind {
	case faults.DiskFail:
		s.onDiskFail(e.Disk, now)
	case faults.DiskRepair:
		if e.Disk < 0 || e.Disk >= s.disks.Disks() || !s.disks.DiskFailed(e.Disk) {
			return
		}
		if err := s.disks.RepairDisk(e.Disk); err != nil {
			panic(fmt.Sprintf("sim: repair disk: %v", err))
		}
		s.diskRepairs++
		v := 0.0
		if s.disks.FailedDisks() > 0 {
			v = 1
		}
		s.degradedTW.Set(now, v)
		s.emit(now, trace.DiskRepair, "", 0, 0, fmt.Sprintf("disk=%d", e.Disk))
	case faults.AllocGlitch:
		s.disks.InjectTransient(e.Count)
		s.emit(now, trace.Glitch, "", 0, 0, fmt.Sprintf("count=%d", e.Count))
	case faults.BufferLoss:
		s.onBufferLoss(e.Movie, now)
	}
}

func (s *Server) onDiskFail(d int, now float64) {
	if d < 0 || d >= s.disks.Disks() || s.disks.DiskFailed(d) {
		// An elastic array may not have provisioned the disk (yet);
		// failing a dead disk again changes nothing.
		return
	}
	orphans, err := s.disks.FailDisk(d)
	if err != nil {
		panic(fmt.Sprintf("sim: fail disk: %v", err))
	}
	s.diskFailures++
	s.degradedTW.Set(now, 1)
	s.emit(now, trace.DiskFail, "", 0, 0, fmt.Sprintf("disk=%d orphans=%d", d, orphans))

	// Batch streams first: re-admit each still-reading partition whose
	// I/O slot sat on the dead disk, preempting dedicated VCR streams if
	// needed; kill the partition when even preemption cannot place it.
	for _, mv := range s.movies {
		for _, ap := range append([]*activePart(nil), mv.parts...) {
			if !ap.slot.Held() || ap.slot.Disk() != d {
				continue
			}
			if slot := s.allocateBatchSlot(now); slot.Held() {
				ap.slot.Release() // orphan stays charged to the dead disk
				ap.slot = slot
				s.emit(now, trace.Recovered, mv.setup.Name, 0, 0, fmt.Sprintf("partition=%d re-admitted", ap.id))
				continue
			}
			s.killPartition(mv, ap, now, "disk failure")
		}
	}

	// Then the dedicated viewers stranded on the dead disk: re-place each
	// on a surviving disk when one has room, otherwise degrade him.
	for _, mv := range s.movies {
		for _, v := range append([]*viewer(nil), mv.viewers...) {
			if !v.slot.Held() || v.slot.Disk() != d || v.state == stateDone {
				continue
			}
			if slot, err := s.disks.Allocate(); err == nil {
				v.slot.Release()
				v.slot = slot
				mv.recovered++
				s.emit(now, trace.Recovered, mv.setup.Name, v.id, 0, "stream re-placed")
				continue
			}
			pos := v.outcome.Pos
			if v.state == stateDedicated || v.state == stateMerging {
				pos = v.str.Position(now)
			}
			s.k.Cancel(v.finishEv)
			s.k.Cancel(v.resumeEv)
			s.k.Cancel(v.mergeEv)
			s.k.Cancel(v.thinkEv)
			v.finishEv, v.resumeEv, v.mergeEv, v.thinkEv = noEv, noEv, noEv, noEv
			s.releaseDedicated(now, v)
			s.fallbackToBatch(mv, now, v, pos, true)
		}
	}
}

func (s *Server) onBufferLoss(movie string, now float64) {
	for _, mv := range s.movies {
		if movie != "" && mv.setup.Name != movie {
			continue
		}
		if len(mv.parts) == 0 {
			continue
		}
		s.killPartition(mv, mv.parts[0], now, "injected buffer loss")
		return
	}
}

// killPartition destroys a live partition: its batch stream stops, its
// buffer returns to the pool, and every member falls back.
func (s *Server) killPartition(mv *movieState, ap *activePart, now float64, why string) {
	if s.k.Cancel(ap.readEndEv) {
		mv.batchTW.Add(now, -1) // the stream was still reading
	}
	s.k.Cancel(ap.expireEv)
	ap.readEndEv, ap.expireEv = noEv, noEv
	ap.gone = true
	ap.slot.Release()
	if err := s.pool.Release(ap.part.Gross()); err != nil {
		panic(fmt.Sprintf("sim: pool release failed: %v", err))
	}
	for i, p := range mv.parts {
		if p == ap {
			mv.parts = append(mv.parts[:i], mv.parts[i+1:]...)
			break
		}
	}
	s.partitionsLost++
	s.emit(now, trace.BufferLost, mv.setup.Name, 0, 0, fmt.Sprintf("partition=%d: %s", ap.id, why))
	for _, v := range append([]*viewer(nil), mv.viewers...) {
		if v.part != ap {
			continue
		}
		pos := ap.part.Head(now) - v.lag
		v.part = nil
		ap.members--
		s.k.Cancel(v.finishEv)
		s.k.Cancel(v.thinkEv)
		s.k.Cancel(v.opRetryEv)
		v.finishEv, v.thinkEv, v.opRetryEv = noEv, noEv, noEv
		s.fallbackToBatch(mv, now, v, pos, true)
	}
}

// allocateBatchSlot leases an I/O slot for a batch stream, preempting
// dedicated VCR streams when the array is exhausted (batch priority).
// Transient faults are ridden through: the retry is immediate because a
// batch restart is a scheduled bulk operation, not an interactive
// request. Returns the zero Slot when no capacity can be found at all.
func (s *Server) allocateBatchSlot(now float64) disk.Slot {
	for {
		slot, err := s.disks.Allocate()
		if err == nil {
			return slot
		}
		if errors.Is(err, disk.ErrTransient) {
			continue
		}
		v, mv := s.preemptVictim()
		if v == nil {
			return disk.Slot{}
		}
		s.preempt(mv, now, v)
	}
}

// preemptVictim picks the first dedicated viewer whose slot sits on a
// live disk (releasing an orphan frees nothing). Iteration order over
// movies and viewers is deterministic.
func (s *Server) preemptVictim() (*viewer, *movieState) {
	for _, mv := range s.movies {
		for _, v := range mv.viewers {
			if !v.slot.Held() || v.state == stateDone {
				continue
			}
			if s.disks.DiskFailed(v.slot.Disk()) {
				continue
			}
			return v, mv
		}
	}
	return nil, nil
}

func (s *Server) preempt(mv *movieState, now float64, v *viewer) {
	s.preempted++
	pos := v.outcome.Pos
	if v.state == stateDedicated || v.state == stateMerging {
		pos = v.str.Position(now)
	}
	s.emit(now, trace.Preempt, mv.setup.Name, v.id, pos, v.state.String())
	s.k.Cancel(v.finishEv)
	s.k.Cancel(v.resumeEv)
	s.k.Cancel(v.mergeEv)
	s.k.Cancel(v.thinkEv)
	v.finishEv, v.resumeEv, v.mergeEv, v.thinkEv = noEv, noEv, noEv, noEv
	s.releaseDedicated(now, v)
	s.fallbackToBatch(mv, now, v, pos, true)
}

// fallbackToBatch is the degraded path of a viewer who lost (or never
// got) dedicated resources: rejoin a covering partition immediately if
// one holds his position — pure batching, counted as a forced miss —
// otherwise starve at a frozen position and retry with backoff. observe
// couples the episode into the pooled hit estimate as one miss trial;
// callers pass false when the miss was already recorded.
func (s *Server) fallbackToBatch(mv *movieState, now float64, v *viewer, pos float64, observe bool) {
	mv.forcedMisses++
	if observe && s.measuring(now) {
		mv.hits.Observe(false)
	}
	s.emit(now, trace.ForcedMiss, mv.setup.Name, v.id, pos, "")
	if pos >= mv.setup.L {
		s.depart(mv, now, v)
		return
	}
	if ap := s.coveringPartition(mv, now, pos); ap != nil {
		if lag, ok := ap.part.LagOf(now, pos); ok {
			s.joinPartition(mv, now, v, ap, lag)
			return
		}
	}
	v.str.Halt(now) // starved: the picture freezes where it was
	v.state = stateDegraded
	v.retries = 0
	v.at = pos
	s.scheduleDegradedRetry(mv, now, v)
}

// scheduleDegradedRetry backs off the next retry of a degraded viewer
// starved at position v.at, or sheds him once the retries run out.
func (s *Server) scheduleDegradedRetry(mv *movieState, now float64, v *viewer) {
	if v.retries >= maxFaultRetries {
		mv.sheds++
		s.emit(now, trace.Shed, mv.setup.Name, v.id, v.at, "retries exhausted")
		s.depart(mv, now, v)
		return
	}
	delay := disk.RetryBackoff.Delay(v.retries)
	v.retries++
	mv.retries++
	v.parkEv = s.schedule(now+delay, mv, evDegradedRetry, v.idx)
}

func (s *Server) onDegradedRetry(mv *movieState, now float64, v *viewer) {
	if v.state != stateDegraded {
		return
	}
	pos := v.at
	if ap := s.coveringPartition(mv, now, pos); ap != nil {
		if lag, ok := ap.part.LagOf(now, pos); ok {
			s.joinPartition(mv, now, v, ap, lag)
			return
		}
	}
	if s.acquireDedicated(now, v) {
		mv.recovered++
		s.emit(now, trace.Recovered, mv.setup.Name, v.id, pos, "dedicated stream")
		s.continueDedicated(mv, now, v, pos)
		return
	}
	s.scheduleDegradedRetry(mv, now, v)
}

// scheduleOpRetry queues a blocked phase-1 VCR request: the viewer keeps
// watching from his partition while the acquisition is retried with
// exponential backoff; an exhausted chain abandons the request as a
// forced miss back to pure batching. The request waits in v.pending and
// the attempts made so far in v.retries.
func (s *Server) scheduleOpRetry(mv *movieState, now float64, v *viewer) {
	if v.retries >= maxFaultRetries {
		mv.forcedMisses++
		if s.measuring(now) {
			mv.hits.Observe(false)
		}
		s.emit(now, trace.ForcedMiss, mv.setup.Name, v.id, v.position(now), "vcr request abandoned")
		s.scheduleThink(mv, now, v)
		return
	}
	delay := disk.RetryBackoff.Delay(v.retries)
	v.retries++
	mv.retries++
	v.opRetryEv = s.schedule(now+delay, mv, evOpRetry, v.idx)
}

func (s *Server) onOpRetry(mv *movieState, now float64, v *viewer) {
	if v.state != stateWatching {
		return // departed, fell back, or lost his partition meanwhile
	}
	pos := v.position(now)
	if pos >= mv.setup.L {
		return // finish fires momentarily
	}
	if !s.acquireDedicated(now, v) {
		s.scheduleOpRetry(mv, now, v)
		return
	}
	req := v.pending
	mv.recovered++
	s.emit(now, trace.Recovered, mv.setup.Name, v.id, pos, "queued vcr request")
	s.leavePartition(v)
	s.k.Cancel(v.finishEv)
	v.finishEv = noEv
	v.state = stateVCR
	v.outcome = vcr.Apply(req, pos, mv.setup.L, s.cfg.Rates)
	s.emit(now, trace.VCRStart, mv.setup.Name, v.id, pos, fmt.Sprintf("%s amount=%.2f", req.Kind, req.Amount))
	v.resumeEv = s.schedule(now+v.outcome.Wall, mv, evResume, v.idx)
}

package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/des"
)

// Checkpoint restore is replay-based. The event queue's typed events
// name live movie, viewer and partition objects and the fault
// timeline's entries by index, none of which a checkpoint serializes;
// but the simulation is deterministic — the seeded RNG plus the
// schedule seeded in begin() fully determine the event sequence. A checkpoint
// therefore records only a boundary (how many events have fired, the
// virtual clock, and a digest of the observable mutable state), and
// restore rebuilds the server from its configuration and re-executes
// events up to that boundary. The digest turns "assumed equal" into
// "verified equal": a resume against a drifted configuration, binary or
// seed fails loudly instead of continuing from the wrong state.

// Checkpoint identifies a resumable boundary of a running simulation.
type Checkpoint struct {
	Fired  uint64  // events executed at the boundary
	Now    float64 // virtual clock at the boundary
	Digest uint64  // FNV-1a digest of the observable mutable state
}

const checkpointWireLen = 24

// MarshalBinary encodes the checkpoint as 24 big-endian bytes.
func (c Checkpoint) MarshalBinary() ([]byte, error) {
	buf := make([]byte, checkpointWireLen)
	binary.BigEndian.PutUint64(buf[0:], c.Fired)
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(c.Now))
	binary.BigEndian.PutUint64(buf[16:], c.Digest)
	return buf, nil
}

// UnmarshalBinary decodes MarshalBinary's encoding.
func (c *Checkpoint) UnmarshalBinary(data []byte) error {
	if len(data) != checkpointWireLen {
		return fmt.Errorf("sim: checkpoint payload is %d bytes, want %d", len(data), checkpointWireLen)
	}
	c.Fired = binary.BigEndian.Uint64(data[0:])
	c.Now = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
	c.Digest = binary.BigEndian.Uint64(data[16:])
	return nil
}

// RunSnapshotted runs a replay-checkpointed job whose checkpoints live
// in the snapshot file at path, so a killed run continues from its last
// checkpoint: without a snapshot it calls start, otherwise resume from
// the stored checkpoint; either hands each new checkpoint to sink, which
// replaces the file. The payload is identity (see checkpoint.Identity)
// followed by the 24-byte checkpoint. A snapshot of another kind or
// length is refused with checkpoint.ErrKind and one written under
// another identity with checkpoint.ErrIdentity, both before any replay.
// A finished run removes the file.
func RunSnapshotted[R any](path string, kind uint16, identity uint64,
	start func(sink func(Checkpoint) error) (R, error),
	resume func(from Checkpoint, sink func(Checkpoint) error) (R, error),
) (R, error) {
	sink := func(cp Checkpoint) error {
		b, _ := cp.MarshalBinary() // cannot fail
		payload := append(binary.BigEndian.AppendUint64(nil, identity), b...)
		return checkpoint.WriteSnapshot(path, checkpoint.FormatVersion, kind, payload)
	}
	var res R
	gotKind, payload, err := checkpoint.ReadSnapshot(path, checkpoint.FormatVersion)
	switch {
	case errors.Is(err, os.ErrNotExist):
		res, err = start(sink)
	case err != nil:
		return res, err
	case gotKind != kind || len(payload) != 8+checkpointWireLen:
		return res, fmt.Errorf("%s: %w: kind %d with %d payload bytes, want kind %d with %d",
			path, checkpoint.ErrKind, gotKind, len(payload), kind, 8+checkpointWireLen)
	case binary.BigEndian.Uint64(payload) != identity:
		return res, fmt.Errorf("%s: %w: the checkpoint was written by a different configuration or build",
			path, checkpoint.ErrIdentity)
	default:
		var cp Checkpoint
		_ = cp.UnmarshalBinary(payload[8:]) // cannot fail: the length is checked above
		res, err = resume(cp, sink)
	}
	if err != nil {
		return res, err
	}
	// A failed removal is harmless: the next run with this identity
	// replays to the leftover checkpoint, verifies it and finishes with
	// the same result.
	_ = os.Remove(path)
	return res, nil
}

// ErrCheckpointMismatch reports a resume whose replayed state does not
// match the checkpoint — a different configuration, seed or binary
// produced the checkpoint, and continuing would silently corrupt the
// run.
var ErrCheckpointMismatch = errors.New("sim: checkpoint does not match replayed state")

// Verify compares the boundary a replay reached against the checkpoint:
// event count, clock bits and digest must all match, or it returns
// ErrCheckpointMismatch naming both sides.
func (c Checkpoint) Verify(replayed Checkpoint) error {
	if replayed.Fired != c.Fired || math.Float64bits(replayed.Now) != math.Float64bits(c.Now) || replayed.Digest != c.Digest {
		return fmt.Errorf("%w: replayed fired=%d now=%x digest=%016x, checkpoint fired=%d now=%x digest=%016x",
			ErrCheckpointMismatch, replayed.Fired, math.Float64bits(replayed.Now), replayed.Digest,
			c.Fired, math.Float64bits(c.Now), c.Digest)
	}
	return nil
}

// digest hashes the server's observable mutable state: kernel counters,
// allocator occupancy, and every per-movie measurement counter. Floats
// are hashed by their bit patterns, so the comparison is exact, not
// approximate. Anything the event callbacks mutate and the result
// collection reads should be visible here — a divergence in hidden
// state (RNG, pending events) surfaces through these counters within a
// few events.
func (s *Server) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	st := s.k.State()
	f64(st.Now)
	u64(st.Seq)
	u64(st.Fired)
	u64(uint64(st.Pending))

	u64(s.nextID)
	u64(uint64(s.dedInUse))
	u64(uint64(s.dedPeak))
	u64(s.diskFailures)
	u64(s.diskRepairs)
	u64(s.partitionsLost)
	u64(s.skippedRestarts)
	u64(s.preempted)
	f64(s.pool.InUse())
	f64(s.pool.Peak())
	u64(uint64(s.disks.InUse()))
	u64(uint64(s.disks.Peak()))
	u64(uint64(s.disks.LiveDisks()))
	u64(s.disks.Allocations())
	f64(s.dedicatedTW.Value())
	f64(s.viewersTW.Value())
	f64(s.degradedTW.Value())

	for _, mv := range s.movies {
		u64(mv.arrivals)
		u64(mv.departures)
		u64(mv.queuedArr)
		u64(mv.endRuns)
		u64(mv.blockedOps)
		u64(mv.blockedResumes)
		u64(mv.parkEvents)
		u64(mv.merges)
		u64(mv.mergeFails)
		u64(mv.forcedMisses)
		u64(mv.sheds)
		u64(mv.recovered)
		u64(mv.retries)
		u64(mv.hits.Successes())
		u64(mv.hits.N())
		u64(mv.waits.N())
		f64(mv.waits.Mean())
		f64(mv.maxWait)
		f64(mv.batchTW.Value())
		u64(uint64(len(mv.parts)))
		u64(uint64(len(mv.waitq)))
		u64(uint64(len(mv.viewers)))
	}
	f64(s.fluidDedTW.Value())
	for _, fm := range s.fluids {
		fm.Digest(u64, f64)
	}
	return h.Sum64()
}

// checkpointNow captures the current boundary. Only meaningful between
// events (RunUntilCheck's check hook), never mid-callback.
func (s *Server) checkpointNow() Checkpoint {
	st := s.k.State()
	return Checkpoint{Fired: st.Fired, Now: st.Now, Digest: s.digest()}
}

// RunCheckpointedCtx runs like RunCtx but additionally hands a restart
// checkpoint to sink every `every` events. A sink error stops the run
// with that error, so a failed checkpoint write halts the simulation
// instead of silently losing durability. The checkpoints only observe
// the schedule; the event sequence and the result are identical to
// RunCtx's at any cadence.
func (s *Server) RunCheckpointedCtx(ctx context.Context, every int, sink func(Checkpoint) error) (*ServerResult, error) {
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	return s.runToHorizon(ctx, every, sink)
}

// ResumeCheckpointedCtx restores the server to cp by deterministic
// replay and continues to the horizon, checkpointing like
// RunCheckpointedCtx. The server must be freshly built from the same
// configuration (including seed) that produced cp; after replay the
// clock bits and state digest are verified and any divergence returns
// ErrCheckpointMismatch.
func (s *Server) ResumeCheckpointedCtx(ctx context.Context, cp Checkpoint, every int, sink func(Checkpoint) error) (*ServerResult, error) {
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	if err := s.k.RunToFired(cp.Fired, ctxCheckEvents, ctx.Err); err != nil {
		if errors.Is(err, des.ErrExhausted) {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
		}
		return nil, err
	}
	if err := cp.Verify(s.checkpointNow()); err != nil {
		return nil, err
	}
	// A checkpoint can land right after the event whose pool accounting
	// error halted the kernel; the original run ended there, so the
	// resume must too rather than execute events the original never ran.
	if s.bufferErr != nil {
		return nil, s.bufferErr
	}
	return s.runToHorizon(ctx, every, sink)
}

func (s *Server) runToHorizon(ctx context.Context, every int, sink func(Checkpoint) error) (*ServerResult, error) {
	check := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if sink == nil {
			return nil
		}
		return sink(s.checkpointNow())
	}
	if err := s.k.RunUntilCheck(s.cfg.Horizon, every, check); err != nil {
		return nil, err
	}
	return s.finish()
}

// RunCheckpointedCtx is Server.RunCheckpointedCtx for the single-movie
// simulator.
func (s *Simulator) RunCheckpointedCtx(ctx context.Context, every int, sink func(Checkpoint) error) (*Result, error) {
	sr, err := s.srv.RunCheckpointedCtx(ctx, every, sink)
	if err != nil {
		return nil, err
	}
	return singleResult(sr), nil
}

// ResumeCheckpointedCtx is Server.ResumeCheckpointedCtx for the
// single-movie simulator.
func (s *Simulator) ResumeCheckpointedCtx(ctx context.Context, cp Checkpoint, every int, sink func(Checkpoint) error) (*Result, error) {
	sr, err := s.srv.ResumeCheckpointedCtx(ctx, cp, every, sink)
	if err != nil {
		return nil, err
	}
	return singleResult(sr), nil
}

// Package des provides a minimal discrete-event simulation kernel: a
// priority queue of timestamped events, a simulation clock, and
// deterministic tie-breaking for simultaneous events — lower class
// first, FIFO within a class.
//
// Every event engine in the repository runs on this kernel: the VOD
// simulator (internal/sim) with its fluid backend (internal/fluid) and
// the cluster churn engine, which also runs cluster.Simulate's routing
// pass.
// Keeping the kernel free of domain knowledge makes its ordering
// guarantees easy to test in isolation.
//
// Classes. An engine whose simultaneous events must fire in a fixed
// order by kind (node transitions before traffic, departures before
// arrivals) schedules them in classes (ScheduleAtClass, ScheduleEvent);
// ScheduleAt is class 0.
// The class rides in the top byte of the event's sequence key, so the
// heap still orders by (time, key) alone and class-0 keys equal the
// plain scheduling sequence: an engine that never uses classes fires in
// exactly the order it did before classes existed.
//
// Allocation strategy. Simulations schedule millions of short-lived
// events, so the kernel never heap-allocates per event: event records
// live in slab blocks owned by the kernel and are recycled through a
// free list the moment they fire or are canceled. Callers hold
// generation-tagged Handles rather than pointers — recycling bumps the
// record's generation, so a stale Cancel (on an event that already fired
// and whose slot now carries a different event) is a safe no-op instead
// of a use-after-free. The (time, seq) total order is untouched by the
// arena: any heap over a strict total order pops the identical sequence,
// so checkpoint digests and replay boundaries are bit-identical to the
// previous per-event-allocation kernel (the slab property test pins
// this against a reference heap kernel).
//
// Typed events. An event record carries no closure: it holds a
// Receiver, an engine-defined Kind and one integer operand, and firing
// calls Receiver.Fire with the latter two. An engine implements Fire
// once, switching over its own kind set, and names the object an event
// concerns (a viewer, a particle, a departure) by its index in an
// engine-owned table, so scheduling an event per viewer allocates
// nothing. Schedule, ScheduleAt and ScheduleAtClass keep taking a plain
// callback: they wrap it as a Func, a Receiver of func type, and that
// conversion allocates nothing either, so both kinds of event share the
// one record, queue and firing path. Engines keep callbacks only for
// events a run schedules a fixed number of times, such as the
// simulator's fault timeline.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Kind is an engine-defined event kind. The kernel passes it back to
// the receiver untouched; each engine declares its own kind set.
type Kind uint8

// Receiver fires typed events: Fire runs the event of the given kind
// with its operand at time now.
type Receiver interface {
	Fire(now float64, kind Kind, arg int)
}

// Func adapts a plain callback to Receiver, ignoring kind and operand.
// A func value is pointer-shaped, so converting one to a Receiver does
// not allocate.
type Func func(now float64)

// Fire calls f.
func (f Func) Fire(now float64, _ Kind, _ int) { f(now) }

// event is one scheduled-event slot in the kernel's arena. Slots are
// recycled after firing or cancellation; the generation counter
// invalidates Handles to previous incarnations.
type event struct {
	time  float64
	seq   uint64 // class<<classShift | scheduling sequence: the equal-time tie-break
	index int32  // heap index; -1 once popped or canceled
	gen   uint32 // incremented on recycle; stale Handles mismatch
	kind  Kind
	arg   int      // the receiver's operand
	recv  Receiver // nil while the slot is free
}

// Handle is a generation-tagged reference to a scheduled event, usable
// with Cancel. The zero Handle references nothing: canceling it is a
// no-op. Handles to events that have fired or been canceled go stale
// (their slot's generation moves on) and are equally inert.
type Handle struct {
	ev  *event
	gen uint32
}

// Active reports whether the referenced event is still pending.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// Canceled reports whether the event has been canceled or already fired
// (or the Handle is zero).
func (h Handle) Canceled() bool { return !h.Active() }

// ErrPastEvent is returned when scheduling before the current clock.
var ErrPastEvent = errors.New("des: cannot schedule event in the past")

// slabBlock is the number of event records allocated per slab growth.
// One block is 14 KiB; a simulation's live arena converges on its peak
// pending-event count and allocates nothing afterwards.
const slabBlock = 256

// Kernel is the simulation driver. The zero value is ready to use with a
// clock at 0. Kernel is not safe for concurrent use; a simulation is a
// single logical thread of control.
type Kernel struct {
	now    float64
	queue  []*event // binary min-heap ordered by (time, seq)
	seq    uint64
	fired  uint64
	halted bool
	free   []*event // recycled slots, LIFO for cache warmth
	slab   []event  // tail of the current allocation block
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.queue) }

// alloc takes a slot from the free list, growing the slab when empty.
func (k *Kernel) alloc() *event {
	if n := len(k.free) - 1; n >= 0 {
		e := k.free[n]
		k.free[n] = nil
		k.free = k.free[:n]
		return e
	}
	if len(k.slab) == 0 {
		k.slab = make([]event, slabBlock)
	}
	e := &k.slab[0]
	k.slab = k.slab[1:]
	return e
}

// recycle returns a fired or canceled slot to the free list. Bumping the
// generation invalidates every outstanding Handle to this incarnation;
// clearing the receiver releases it (and whatever a callback captures)
// to the GC immediately rather than at next reuse.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.recv = nil
	k.free = append(k.free, e)
}

// classShift places an event's class in the top byte of its sequence
// key; the scheduling sequence below it would need 2^56 events to
// reach the class bits.
const classShift = 56

// ScheduleAt registers action to run at absolute time t. Events at equal
// times fire in scheduling order. It returns the event handle, usable
// with Cancel. The label only names the event in an ErrPastEvent error.
func (k *Kernel) ScheduleAt(t float64, label string, action func(now float64)) (Handle, error) {
	return k.ScheduleAtClass(t, 0, label, action)
}

// ScheduleAtClass is ScheduleAt with a tie-break class: among events at
// equal times, a lower class fires first, and events of one class fire
// in scheduling order. Class 0 is ScheduleAt's.
func (k *Kernel) ScheduleAtClass(t float64, class uint8, label string, action func(now float64)) (Handle, error) {
	if math.IsNaN(t) || t < k.now {
		return Handle{}, fmt.Errorf("%w: t=%v now=%v (%s)", ErrPastEvent, t, k.now, label)
	}
	return k.post(t, class, Func(action), 0, 0), nil
}

// Schedule registers action to run delay time units from now.
func (k *Kernel) Schedule(delay float64, label string, action func(now float64)) (Handle, error) {
	return k.ScheduleAt(k.now+delay, label, action)
}

// ScheduleEvent registers a typed event at absolute time t in the given
// tie-break class (see ScheduleAtClass): at t the kernel calls
// r.Fire(t, kind, arg). It returns the event handle, usable with
// Cancel.
func (k *Kernel) ScheduleEvent(t float64, class uint8, r Receiver, kind Kind, arg int) (Handle, error) {
	if math.IsNaN(t) || t < k.now {
		return Handle{}, fmt.Errorf("%w: t=%v now=%v (kind %d)", ErrPastEvent, t, k.now, kind)
	}
	return k.post(t, class, r, kind, arg), nil
}

// post queues an event at a time already checked against the clock.
func (k *Kernel) post(t float64, class uint8, r Receiver, kind Kind, arg int) Handle {
	e := k.alloc()
	e.time = t
	e.seq = uint64(class)<<classShift | k.seq
	e.kind = kind
	e.arg = arg
	e.recv = r
	k.seq++
	k.push(e)
	return Handle{ev: e, gen: e.gen}
}

// Cancel removes a pending event. Canceling a fired, already-canceled,
// stale or zero Handle is a no-op returning false.
func (k *Kernel) Cancel(h Handle) bool {
	e := h.ev
	if e == nil || e.gen != h.gen || e.index < 0 {
		return false
	}
	k.remove(int(e.index))
	e.index = -1
	k.recycle(e)
	return true
}

// Halt stops the current Run/RunUntil after the in-flight event returns.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. The slot is recycled before
// the callback runs — nested ScheduleAt calls reuse it immediately —
// which is safe because outstanding Handles go stale at recycle.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.popMin()
	e.index = -1
	k.now = e.time
	k.fired++
	r, kind, arg := e.recv, e.kind, e.arg
	k.recycle(e)
	r.Fire(k.now, kind, arg)
	return true
}

// RunUntil executes events in timestamp order until the queue empties,
// the next event lies beyond horizon, or Halt is called. The clock is
// left at the last executed event (or advanced to horizon when the queue
// outlives it).
func (k *Kernel) RunUntil(horizon float64) {
	k.halted = false
	for !k.halted && len(k.queue) > 0 {
		if k.queue[0].time > horizon {
			break
		}
		k.Step()
	}
	if k.now < horizon && (len(k.queue) == 0 || k.queue[0].time > horizon) {
		k.now = horizon
	}
}

// Run executes events until the queue empties or Halt is called.
func (k *Kernel) Run() {
	k.halted = false
	for !k.halted && k.Step() {
	}
}

// State is an observable snapshot of the kernel's counters: the virtual
// clock, the scheduling sequence number, the number of events executed,
// and the pending-queue depth. Together with the determinism guarantee
// (same initial schedule + same callbacks ⇒ same event sequence), a
// State identifies a replayable boundary of a run: executing the same
// simulation from scratch until Fired events have run lands on an
// identical kernel — the foundation of crash-safe checkpointing.
type State struct {
	Now     float64
	Seq     uint64
	Fired   uint64
	Pending int
}

// State returns the kernel's current counters.
func (k *Kernel) State() State {
	return State{Now: k.now, Seq: k.seq, Fired: k.fired, Pending: len(k.queue)}
}

// ErrExhausted reports a replay that ran out of events before reaching
// its target boundary — the checkpoint belongs to a different schedule.
var ErrExhausted = errors.New("des: event queue exhausted before replay target")

// RunToFired executes events until the cumulative fired count reaches
// target — the replay half of checkpoint restore: a simulation rebuilt
// from its configuration reaches the exact checkpointed state by
// re-executing the deterministic event sequence up to the boundary.
// Every `every` events (minimum 1) it calls check and stops with
// check's error when non-nil; a nil check replays without interruption.
// Reaching an empty queue first returns ErrExhausted.
func (k *Kernel) RunToFired(target uint64, every int, check func() error) error {
	if every < 1 {
		every = 1
	}
	n := 0
	for k.fired < target {
		if !k.Step() {
			return fmt.Errorf("%w: fired %d of %d", ErrExhausted, k.fired, target)
		}
		if check == nil {
			continue
		}
		if n++; n >= every {
			n = 0
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunUntilCheck is RunUntil with a periodic abort hook: every `every`
// events (minimum 1) it calls check and stops with check's error when
// non-nil, leaving the clock at the last executed event. The simulator
// uses it to honor request-context cancellation with a latency bound of
// `every` events while keeping the hot loop free of per-event overhead.
// A nil check degenerates to RunUntil.
func (k *Kernel) RunUntilCheck(horizon float64, every int, check func() error) error {
	if check == nil {
		k.RunUntil(horizon)
		return nil
	}
	if every < 1 {
		every = 1
	}
	k.halted = false
	n := 0
	for !k.halted && len(k.queue) > 0 {
		if k.queue[0].time > horizon {
			break
		}
		k.Step()
		if n++; n >= every {
			n = 0
			if err := check(); err != nil {
				return err
			}
		}
	}
	if k.now < horizon && (len(k.queue) == 0 || k.queue[0].time > horizon) {
		k.now = horizon
	}
	return nil
}

// The heap below is a specialized binary min-heap over (time, seq) —
// container/heap without the interface boxing and with sift paths that
// move the displaced element once instead of swapping pairwise. (time,
// seq) is a strict total order (seq is unique; its top byte is the
// class), so the pop sequence is independent of the internal
// arrangement; any correct heap fires the same events in the same order.

func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends e and sifts it up.
func (k *Kernel) push(e *event) {
	i := len(k.queue)
	e.index = int32(i)
	k.queue = append(k.queue, e)
	k.up(i)
}

// up sifts the element at i toward the root.
func (k *Kernel) up(i int) {
	q := k.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = e
	e.index = int32(i)
}

// down sifts the element at i toward the leaves.
func (k *Kernel) down(i int) {
	q := k.queue
	n := len(q)
	e := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(q[r], q[l]) {
			m = r
		}
		if !eventLess(q[m], e) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = e
	e.index = int32(i)
}

// popMin removes and returns the earliest event.
func (k *Kernel) popMin() *event {
	q := k.queue
	n := len(q) - 1
	e := q[0]
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		k.down(0)
	}
	return e
}

// remove deletes the element at heap index i.
func (k *Kernel) remove(i int) {
	q := k.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i < n {
		q[i] = last
		last.index = int32(i)
		k.down(i)
		if int(last.index) == i {
			k.up(i)
		}
	}
}

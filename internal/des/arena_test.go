package des

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file pins the arena kernel against a reference kernel that works
// the way the pre-arena implementation did: one heap allocation per
// event, container/heap ordering by (time, class, seq), no recycling.
// The two must fire identical (time, payload) sequences and return
// identical Cancel results under arbitrary schedule/cancel
// interleavings — the property that makes the slab/free-list arena,
// and the class folded into its sequence key, a pure optimization.

// refEvent / refQueue / refKernel: the reference implementation.
type refEvent struct {
	time   float64
	class  uint8
	seq    uint64
	index  int
	action func(now float64)
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].class != q[j].class {
		return q[i].class < q[j].class
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refKernel struct {
	now   float64
	queue refQueue
	seq   uint64
}

func (k *refKernel) schedule(t float64, class uint8, action func(now float64)) *refEvent {
	e := &refEvent{time: t, class: class, seq: k.seq, action: action}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) cancel(e *refEvent) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&k.queue, e.index)
	e.index = -1
	return true
}

func (k *refKernel) run() {
	for k.queue.Len() > 0 {
		e := heap.Pop(&k.queue).(*refEvent)
		e.index = -1
		k.now = e.time
		e.action(k.now)
	}
}

// driver abstracts the two kernels behind the operations the script
// exercises: schedule returns a canceler for the new event.
type driver struct {
	schedule func(t float64, class uint8, action func(now float64)) (cancel func() bool)
	run      func()
}

type firedRec struct {
	now     float64
	payload int
}

// runScript drives a kernel through a seeded random workload — nested
// scheduling from inside callbacks, cancels of live, fired and
// already-canceled events, random classes on whole-minute times so
// equal-time ties are common — and returns the fired sequence plus
// every Cancel result. Both kernels consume the rng in fire order, so
// equal logs imply equal event sequencing throughout.
func runScript(seed int64, d driver) (fired []firedRec, cancels []bool) {
	rng := rand.New(rand.NewSource(seed))
	var cancelers []func() bool
	payload := 0
	var sched func(base float64, depth int)
	sched = func(base float64, depth int) {
		p := payload
		payload++
		t := base + math.Floor(rng.Float64()*50)
		c := d.schedule(t, uint8(rng.Intn(4)), func(now float64) {
			fired = append(fired, firedRec{now, p})
			if depth < 3 && rng.Float64() < 0.4 {
				sched(now, depth+1)
			}
			if len(cancelers) > 0 && rng.Float64() < 0.3 {
				// Cancel a random handle: may be live, fired (stale) or
				// already canceled — all three must behave identically.
				cancels = append(cancels, cancelers[rng.Intn(len(cancelers))]())
			}
		})
		cancelers = append(cancelers, c)
	}
	for i := 0; i < 30; i++ {
		sched(0, 0)
	}
	for i := range cancelers {
		if rng.Float64() < 0.15 {
			cancels = append(cancels, cancelers[i]())
		}
	}
	d.run()
	return fired, cancels
}

func arenaDriver(k *Kernel) driver {
	return driver{
		schedule: func(t float64, class uint8, action func(now float64)) func() bool {
			h, err := k.ScheduleAtClass(t, class, "p", action)
			if err != nil {
				panic(err)
			}
			return func() bool { return k.Cancel(h) }
		},
		run: k.Run,
	}
}

func refDriver(k *refKernel) driver {
	return driver{
		schedule: func(t float64, class uint8, action func(now float64)) func() bool {
			e := k.schedule(t, class, action)
			return func() bool { return k.cancel(e) }
		},
		run: k.run,
	}
}

// Property: the arena kernel and the reference kernel fire identical
// (time, payload) sequences and agree on every Cancel result, for any
// random schedule/cancel interleaving.
func TestPropertyArenaMatchesReferenceKernel(t *testing.T) {
	prop := func(seed int64) bool {
		var ak Kernel
		aFired, aCancels := runScript(seed, arenaDriver(&ak))
		var rk refKernel
		rFired, rCancels := runScript(seed, refDriver(&rk))
		if len(aFired) != len(rFired) || len(aCancels) != len(rCancels) {
			return false
		}
		for i := range aFired {
			if aFired[i] != rFired[i] {
				return false
			}
		}
		for i := range aCancels {
			if aCancels[i] != rCancels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A handle whose event fired must stay inert even after its arena slot
// has been reused by a new event: the generation tag, not the pointer,
// decides liveness.
func TestStaleHandleDoesNotCancelReusedSlot(t *testing.T) {
	var k Kernel
	h1, err := k.ScheduleAt(1, "first", func(float64) {})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if h1.Active() {
		t.Fatal("fired handle still active")
	}
	fired := false
	h2, err := k.ScheduleAt(2, "second", func(float64) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if h1.ev != h2.ev {
		t.Fatalf("expected slot reuse: %p vs %p", h1.ev, h2.ev)
	}
	if k.Cancel(h1) {
		t.Error("stale handle canceled the reused slot")
	}
	k.Run()
	if !fired {
		t.Error("second event did not fire")
	}
}

// Canceling from inside the firing callback of the same slot's previous
// incarnation must also be inert; and the arena must recycle canceled
// slots (bounded live footprint under churn).
func TestArenaRecyclesCanceledSlots(t *testing.T) {
	var k Kernel
	for i := 0; i < 10_000; i++ {
		h, err := k.ScheduleAt(float64(i), "churn", func(float64) {})
		if err != nil {
			t.Fatal(err)
		}
		k.Cancel(h)
	}
	if got := len(k.free); got > 2*slabBlock {
		t.Errorf("free list grew to %d slots; recycling is not reusing them", got)
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d want 0", k.Pending())
	}
}

// benchAction is package-level so the benchmark measures the kernel's
// allocations, not closure construction.
var benchSink float64

func benchAction(now float64) { benchSink = now }

// BenchmarkKernel measures steady-state schedule+fire churn. The
// allocation pin for this path lives in TestKernelSteadyStateAllocs;
// ci.sh runs the benchmark with -benchmem as a smoke check.
func BenchmarkKernel(b *testing.B) {
	b.ReportAllocs()
	var k Kernel
	for i := 0; i < b.N; i++ {
		if _, err := k.Schedule(1, "bench", benchAction); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

// BenchmarkKernelDeepQueue exercises heap sifts with 1k pending events.
func BenchmarkKernelDeepQueue(b *testing.B) {
	b.ReportAllocs()
	var k Kernel
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		if _, err := k.Schedule(1+rng.Float64(), "fill", benchAction); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Schedule(1+rng.Float64(), "bench", benchAction); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

// TestKernelSteadyStateAllocs is the recorded allocation ceiling for the
// kernel hot path: once the arena is warm, a schedule+fire cycle must
// not allocate. The slab amortizes to < 1/slabBlock allocations per
// event; the ceiling of 0.05 leaves room for that tail while failing on
// any per-event allocation creeping back in.
func TestKernelSteadyStateAllocs(t *testing.T) {
	var k Kernel
	for i := 0; i < 2*slabBlock; i++ { // warm the slab and free list
		if _, err := k.Schedule(1, "warm", benchAction); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	avg := testing.AllocsPerRun(5000, func() {
		if _, err := k.Schedule(1, "pin", benchAction); err != nil {
			t.Fatal(err)
		}
		k.Step()
	})
	if avg > 0.05 {
		t.Errorf("schedule+fire allocates %.3f objects/op; the arena hot path must stay allocation-free", avg)
	}
}

// typedAction is one typed event of typedDriver: the callback it stands
// for and the kind it was scheduled with.
type typedAction struct {
	kind   Kind
	action func(now float64)
}

// typedTable is typedDriver's receiver: an event's operand indexes the
// table, and Fire checks that the kind came back unchanged.
type typedTable []typedAction

func (tt *typedTable) Fire(now float64, kind Kind, arg int) {
	a := (*tt)[arg]
	if kind != a.kind {
		panic("des: typed event fired with another kind")
	}
	a.action(now)
}

// typedDriver schedules two events in three as typed events on one
// receiver and the third as a closure event, so both kinds share the
// queue, the classes and the FIFO ties.
func typedDriver(k *Kernel) driver {
	table := &typedTable{}
	n := 0
	return driver{
		schedule: func(t float64, class uint8, action func(now float64)) func() bool {
			var h Handle
			var err error
			if n++; n%3 == 0 {
				h, err = k.ScheduleAtClass(t, class, "closure", action)
			} else {
				kind := Kind(n % 7)
				*table = append(*table, typedAction{kind, action})
				h, err = k.ScheduleEvent(t, class, table, kind, len(*table)-1)
			}
			if err != nil {
				panic(err)
			}
			return func() bool { return k.Cancel(h) }
		},
		run: k.Run,
	}
}

// observed wraps d so that every firing first logs state().
func observed(d driver, log *[]State, state func() State) driver {
	return driver{
		schedule: func(t float64, class uint8, action func(now float64)) func() bool {
			return d.schedule(t, class, func(now float64) {
				*log = append(*log, state())
				action(now)
			})
		},
		run: d.run,
	}
}

// Property: a kernel running a mix of typed and closure events fires
// the reference kernel's (time, payload) sequence, agrees on every
// Cancel result (live, fired and already-canceled handles alike), and
// shows the same clock, sequence number, fired count and pending depth
// at every firing and at the end.
func TestPropertyTypedEventsMatchReferenceKernel(t *testing.T) {
	prop := func(seed int64) bool {
		var k Kernel
		var tStates []State
		tFired, tCancels := runScript(seed, observed(typedDriver(&k), &tStates, k.State))

		var rk refKernel
		var rStates []State
		refState := func() State {
			return State{Now: rk.now, Seq: rk.seq, Fired: uint64(len(rStates) + 1), Pending: rk.queue.Len()}
		}
		rFired, rCancels := runScript(seed, observed(refDriver(&rk), &rStates, refState))

		if len(tFired) != len(rFired) || len(tCancels) != len(rCancels) || len(tStates) != len(rStates) {
			return false
		}
		for i := range tFired {
			if tFired[i] != rFired[i] || tStates[i] != rStates[i] {
				return false
			}
		}
		for i := range tCancels {
			if tCancels[i] != rCancels[i] {
				return false
			}
		}
		end := State{Now: rk.now, Seq: rk.seq, Fired: uint64(len(rStates)), Pending: rk.queue.Len()}
		return k.State() == end
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

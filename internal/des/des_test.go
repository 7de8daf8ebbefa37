package des

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var k Kernel
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		if _, err := k.ScheduleAt(tm, "e", func(now float64) {
			got = append(got, now)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != 5 || k.Fired() != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
	if k.Now() != 5 {
		t.Errorf("clock = %g want 5", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := k.ScheduleAt(7, "tie", func(float64) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: %v", order)
		}
	}
}

// Equal-time events fire lowest class first, FIFO within a class,
// whatever order they were scheduled in — including events scheduled at
// the current time from inside a callback of a higher class.
func TestSimultaneousEventsByClass(t *testing.T) {
	var k Kernel
	type tag struct{ class, i int }
	var order []tag
	classes := []uint8{3, 0, 2, 3, 1, 0, 2, 1, 3, 0}
	for i, c := range classes {
		c, i := c, i
		if _, err := k.ScheduleAtClass(7, c, "tie", func(now float64) {
			order = append(order, tag{int(c), i})
			if c == 2 && i == 2 {
				// Scheduled mid-tie at the current time: class 1 still
				// fires before the pending class-2 and class-3 events.
				if _, err := k.ScheduleAtClass(now, 1, "nested", func(float64) {
					order = append(order, tag{1, 100})
				}); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.ScheduleAt(6, "earlier", func(float64) { order = append(order, tag{-1, -1}) }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := []tag{{-1, -1}, {0, 1}, {0, 5}, {0, 9}, {1, 4}, {1, 7}, {2, 2}, {1, 100}, {2, 6}, {3, 0}, {3, 3}, {3, 8}}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	// Classes order ties only: an earlier time beats a lower class, and
	// the kernel's scheduling sequence counts every class alike.
	if s := k.State(); s.Seq != 12 || s.Fired != 12 {
		t.Errorf("state after the tie: %+v", s)
	}
}

func TestScheduleRelative(t *testing.T) {
	var k Kernel
	var at float64
	if _, err := k.ScheduleAt(10, "outer", func(now float64) {
		if _, err := k.Schedule(5, "inner", func(now float64) { at = now }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if at != 15 {
		t.Errorf("relative event at %g want 15", at)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	var k Kernel
	if _, err := k.ScheduleAt(10, "x", func(float64) {}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if _, err := k.ScheduleAt(5, "past", func(float64) {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("want ErrPastEvent, got %v", err)
	}
	if _, err := k.ScheduleAt(math.NaN(), "nan", func(float64) {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("NaN time: want ErrPastEvent, got %v", err)
	}
}

func TestCancel(t *testing.T) {
	var k Kernel
	fired := false
	e, err := k.ScheduleAt(3, "victim", func(float64) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !k.Cancel(e) {
		t.Error("first cancel should succeed")
	}
	if k.Cancel(e) {
		t.Error("second cancel should be a no-op")
	}
	if k.Cancel(Handle{}) {
		t.Error("zero-handle cancel should be a no-op")
	}
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("event should report canceled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var k Kernel
	var got []float64
	events := make([]Handle, 0, 20)
	for i := 0; i < 20; i++ {
		tm := float64(i)
		e, err := k.ScheduleAt(tm, "e", func(now float64) { got = append(got, now) })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	// Cancel every third event.
	want := 0
	for i, e := range events {
		if i%3 == 1 {
			k.Cancel(e)
		} else {
			want++
		}
	}
	k.Run()
	if len(got) != want {
		t.Errorf("fired %d events, want %d", len(got), want)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("order violated after cancels: %v", got)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	var k Kernel
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 10, 20} {
		tm := tm
		if _, err := k.ScheduleAt(tm, "e", func(now float64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(5)
	if len(fired) != 3 {
		t.Errorf("fired %d events before horizon, want 3", len(fired))
	}
	if k.Now() != 5 {
		t.Errorf("clock = %g want horizon 5", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d want 2", k.Pending())
	}
	k.RunUntil(100)
	if len(fired) != 5 {
		t.Errorf("fired %d total, want 5", len(fired))
	}
}

func TestHalt(t *testing.T) {
	var k Kernel
	count := 0
	for i := 0; i < 10; i++ {
		if _, err := k.ScheduleAt(float64(i), "e", func(float64) {
			count++
			if count == 4 {
				k.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if count != 4 {
		t.Errorf("halt after 4: fired %d", count)
	}
	// Resume.
	k.Run()
	if count != 10 {
		t.Errorf("resume: fired %d want 10", count)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Error("Step on empty queue should report false")
	}
}

// Property: any random schedule (with nested re-scheduling and cancels)
// fires events in nondecreasing time order.
func TestPropertyRandomScheduleOrdered(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		var fired []float64
		var pending []Handle
		for i := 0; i < 50; i++ {
			tm := rng.Float64() * 100
			e, err := k.ScheduleAt(tm, "p", func(now float64) {
				fired = append(fired, now)
				if rng.Float64() < 0.3 {
					_, _ = k.Schedule(rng.Float64()*10, "child", func(now float64) {
						fired = append(fired, now)
					})
				}
			})
			if err != nil {
				return false
			}
			pending = append(pending, e)
		}
		for _, e := range pending {
			if rng.Float64() < 0.2 {
				k.Cancel(e)
			}
		}
		k.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStateObservesCounters(t *testing.T) {
	var k Kernel
	if s := k.State(); s != (State{}) {
		t.Fatalf("zero kernel state = %+v", s)
	}
	k.Schedule(1, "a", func(float64) {})
	k.Schedule(2, "b", func(float64) {})
	if s := k.State(); s.Pending != 2 || s.Seq != 2 || s.Fired != 0 {
		t.Fatalf("after scheduling: %+v", s)
	}
	k.Step()
	if s := k.State(); s.Now != 1 || s.Fired != 1 || s.Pending != 1 {
		t.Fatalf("after one step: %+v", s)
	}
}

// Replaying a prefix with RunToFired and finishing with Run must land
// on the same final state as an uninterrupted Run — including when the
// schedule grows dynamically from inside callbacks.
func TestRunToFiredReplayMatchesStraightRun(t *testing.T) {
	build := func() *Kernel {
		var k Kernel
		var grow func(now float64)
		depth := 0
		grow = func(now float64) {
			if depth++; depth < 40 {
				k.Schedule(0.75, "grow", grow)
				k.Schedule(1.5, "leaf", func(float64) {})
			}
		}
		k.Schedule(1, "seed", grow)
		return &k
	}

	straight := build()
	straight.Run()
	want := straight.State()

	for target := uint64(1); target <= want.Fired; target++ {
		k := build()
		if err := k.RunToFired(target, 4, nil); err != nil {
			t.Fatalf("replay to %d: %v", target, err)
		}
		if got := k.State().Fired; got != target {
			t.Fatalf("replay to %d fired %d", target, got)
		}
		k.Run()
		if got := k.State(); got != want {
			t.Fatalf("replay to %d then Run: %+v != %+v", target, got, want)
		}
	}

	k := build()
	if err := k.RunToFired(want.Fired+1, 1, nil); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overshoot: want ErrExhausted, got %v", err)
	}
}

func TestRunToFiredHonorsCheck(t *testing.T) {
	var k Kernel
	for i := 0; i < 20; i++ {
		k.Schedule(float64(i), "e", func(float64) {})
	}
	stop := errors.New("stop")
	calls := 0
	err := k.RunToFired(20, 5, func() error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("want check error, got %v", err)
	}
	if got := k.Fired(); got != 10 {
		t.Fatalf("stopped after %d events, want 10", got)
	}
}

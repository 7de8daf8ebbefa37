package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"vodalloc/internal/des"
)

// The churn engine's horizon rule: an event at or past the horizon is
// queued and counted but fires as a no-op, and the first arrival at or
// past it ends the run.
func TestHorizonKernelEndsAtFirstLateArrival(t *testing.T) {
	k := &horizonKernel{horizon: 10}
	var fired []string
	rec := func(s string) func(float64) { return func(float64) { fired = append(fired, s) } }
	k.at(5, cevDeparture, des.Func(rec("early")), 0)
	k.at(10, cevDeparture, des.Func(rec("late")), 0)
	k.at(12, cevArrival, des.Func(rec("arrival")), 0)
	k.at(12, cevDeparture, des.Func(rec("tie")), 0)
	k.at(15, cevDeparture, des.Func(rec("after")), 0)
	k.Run()
	if len(fired) != 1 || fired[0] != "early" {
		t.Errorf("callbacks fired: %v, want only early", fired)
	}
	if !k.ended || k.err != nil {
		t.Errorf("ended=%v err=%v, want ended without error", k.ended, k.err)
	}
	if k.Fired() != 4 || k.Pending() != 1 || k.Now() != 12 {
		t.Errorf("fired=%d pending=%d now=%v, want 4, 1, 12", k.Fired(), k.Pending(), k.Now())
	}
}

// A time the kernel refuses — NaN, or earlier than now — stops the churn
// run with des.ErrPastEvent instead of panicking or firing out of order.
func TestChurnRefusedTimeIsAnError(t *testing.T) {
	for name, at := range map[string]func(now float64) float64{
		"nan":  func(float64) float64 { return math.NaN() },
		"past": func(now float64) float64 { return now - 1 },
	} {
		t.Run(name, func(t *testing.T) {
			r, err := newChurnRun(flashScenario(t, false))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				r.k.Step()
			}
			r.k.at(at(r.k.Now()), cevTick, r, 0)
			if err := r.run(context.Background(), 0, nil); !errors.Is(err, des.ErrPastEvent) {
				t.Fatalf("run: %v, want des.ErrPastEvent", err)
			}
		})
	}
}

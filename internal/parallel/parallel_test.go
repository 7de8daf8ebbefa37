package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(context.Background(), Opts{Workers: workers}, 100,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	out, err := Map(context.Background(), Opts{}, 0,
		func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map(context.Background(), Opts{}, -1,
		func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("n=-1: want error")
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), Opts{Workers: 3}, 50,
		func(_ context.Context, i int) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds worker bound 3", p)
	}
}

func TestMapFirstErrorIsSmallestIndex(t *testing.T) {
	boom := errors.New("boom")
	// Indices 3 and 7 both fail; regardless of scheduling, if both are
	// observed the reported index must be the smaller. With Workers=1 the
	// sweep stops at 3 and never runs 7.
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), Opts{Workers: workers}, 10,
			func(_ context.Context, i int) (int, error) {
				if i == 3 || i == 7 {
					return 0, fmt.Errorf("i=%d: %w", i, boom)
				}
				return i, nil
			})
		var pe *Error
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %v is not *Error", workers, err)
		}
		if pe.Index != 3 {
			t.Fatalf("workers=%d: reported index %d, want 3", workers, pe.Index)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Unwrap chain lost the cause", workers)
		}
		if got := Cause(err); !errors.Is(got, boom) || errors.As(got, new(*Error)) {
			t.Fatalf("workers=%d: Cause(%v) = %v", workers, err, got)
		}
	}
}

func TestMapErrorStopsScheduling(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), Opts{Workers: 1}, 1000,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 2 {
				return 0, errors.New("stop")
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n > 4 {
		t.Fatalf("ran %d items after the error with 1 worker", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, Opts{Workers: 2}, 1_000_000,
			func(ctx context.Context, i int) (int, error) {
				if ran.Add(1) == 10 {
					cancel()
				}
				return i, nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not stop after cancellation")
	}
	if n := ran.Load(); n > 1000 {
		t.Fatalf("ran %d items after cancellation", n)
	}
}

func TestPoolSharesBudgetAcrossMaps(t *testing.T) {
	pool := NewPool(2)
	var inFlight, peak atomic.Int64
	work := func(_ context.Context, i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	}
	done := make(chan error, 3)
	for k := 0; k < 3; k++ {
		go func() {
			_, err := Map(context.Background(), Opts{Workers: 4, Pool: pool}, 20, work)
			done <- err
		}()
	}
	for k := 0; k < 3; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight %d exceeds shared pool capacity 2", p)
	}
}

func TestPoolNilAndCap(t *testing.T) {
	var p *Pool
	if p.Cap() != 0 {
		t.Fatal("nil pool must report zero capacity")
	}
	if NewPool(0).Cap() < 1 {
		t.Fatal("default pool capacity must be positive")
	}
	if NewPool(5).Cap() != 5 {
		t.Fatal("pool capacity not respected")
	}
}

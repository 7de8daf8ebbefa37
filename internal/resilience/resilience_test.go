package resilience

import (
	"math"
	"testing"
	"time"
)

func TestBackoffDelaySchedule(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		want    float64
	}{
		{"attempt0", Backoff{Base: 0.5}, 0, 0.5},
		{"doubling", Backoff{Base: 0.5}, 3, 4},
		{"explicit factor", Backoff{Base: 1, Factor: 3}, 2, 9},
		{"negative attempt", Backoff{Base: 2}, -4, 2},
	}
	for _, tc := range cases {
		if got := tc.b.Delay(tc.attempt); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Delay(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}

func TestBackoffMatchesSimulatorChain(t *testing.T) {
	// The simulator's degraded-mode chain was retryBase·2^k with
	// retryBase = 0.5; the shared Backoff must reproduce it exactly so
	// simulation outputs stay byte-identical.
	b := Backoff{Base: 0.5, Factor: 2}
	for k := 0; k < 8; k++ {
		want := 0.5 * math.Pow(2, float64(k))
		if got := b.Delay(k); got != want {
			t.Fatalf("Delay(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(3, 10*time.Second)
	b.Clock = clock

	if !b.Allow() || b.State() != Closed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("below threshold must stay closed")
	}
	b.Success() // resets the consecutive count
	b.Failure()
	b.Failure()
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker must fast-fail")
	}

	now = now.Add(11 * time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("cooled-down breaker must admit one probe")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}
	b.Failure() // probe failed: re-open
	if b.State() != Open || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}

	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown must admit another probe")
	}
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestBulkheadLimitsAndReleases(t *testing.T) {
	var nilB *Bulkhead
	if !nilB.TryAcquire() || nilB.InUse() != 0 || nilB.Cap() != 0 {
		t.Fatal("nil bulkhead must be a no-op limiter")
	}
	nilB.Release() // must not panic

	b := NewBulkhead(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("two acquires within capacity must succeed")
	}
	if b.TryAcquire() {
		t.Fatal("third acquire must shed")
	}
	if b.InUse() != 2 || b.Cap() != 2 {
		t.Fatalf("InUse=%d Cap=%d, want 2/2", b.InUse(), b.Cap())
	}

	b.Release()
	if !b.TryAcquire() {
		t.Fatal("acquire after release must succeed")
	}
	b.Release()
	b.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	b.Release()
}

package buffer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoolReserveRelease(t *testing.T) {
	p := NewElasticPool()
	if err := p.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 100 || p.Peak() != 100 {
		t.Errorf("use=%g peak=%g", p.InUse(), p.Peak())
	}
	if err := p.Release(30); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(25); err != nil {
		t.Errorf("reserve after release: %v", err)
	}
	if p.InUse() != 95 || p.Peak() != 100 {
		t.Errorf("use=%g peak=%g, want 95 and 100", p.InUse(), p.Peak())
	}
}

func TestPoolReleaseTooMuch(t *testing.T) {
	p := NewElasticPool()
	_ = p.Reserve(5)
	if err := p.Release(6); !errors.Is(err, ErrBadParam) {
		t.Errorf("over-release: want ErrBadParam, got %v", err)
	}
	if err := p.Release(-1); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative release: want ErrBadParam, got %v", err)
	}
}

func TestPoolValidation(t *testing.T) {
	p := NewElasticPool()
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := p.Reserve(bad); !errors.Is(err, ErrBadParam) {
			t.Errorf("reserve %v: want ErrBadParam, got %v", bad, err)
		}
	}
}

func TestElasticPoolGrowsAndTracksPeak(t *testing.T) {
	p := NewElasticPool()
	for i := 0; i < 10; i++ {
		if err := p.Reserve(7); err != nil {
			t.Fatalf("elastic reserve failed: %v", err)
		}
	}
	if p.InUse() != 70 || p.Peak() != 70 {
		t.Errorf("use=%g peak=%g want 70", p.InUse(), p.Peak())
	}
	_ = p.Release(50)
	_ = p.Reserve(10)
	if p.Peak() != 70 {
		t.Errorf("peak %g want 70", p.Peak())
	}
}

func TestPartitionLifecycle(t *testing.T) {
	// Stream starts at t=100, span 4, movie 120.
	p, err := NewPartition(100, 4, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	// Before start: nothing.
	if _, _, ok := p.Window(99); ok {
		t.Error("window before start")
	}
	if p.Covers(99, 0) {
		t.Error("covers before start")
	}
	// Enrollment window open while head ≤ span.
	if !p.EnrollmentOpen(102) {
		t.Error("enrollment should be open at head=2")
	}
	if p.EnrollmentOpen(104.5) {
		t.Error("enrollment should be closed at head=4.5")
	}
	// Young window is [0, head].
	lo, hi, ok := p.Window(102)
	if !ok || lo != 0 || hi != 2 {
		t.Errorf("young window [%g,%g] ok=%v want [0,2]", lo, hi, ok)
	}
	// Steady state window is [head−span, head].
	lo, hi, ok = p.Window(150)
	if !ok || lo != 46 || hi != 50 {
		t.Errorf("steady window [%g,%g] want [46,50]", lo, hi)
	}
	if !p.Covers(150, 48) || p.Covers(150, 45) || p.Covers(150, 51) {
		t.Error("coverage at steady state wrong")
	}
	// Reading stops at head = movie length.
	if !p.Reading(219.9) || p.Reading(220.5) {
		t.Error("reading phase boundaries wrong")
	}
	if p.ReadEndTime() != 220 {
		t.Errorf("read end %g want 220", p.ReadEndTime())
	}
	// Drain: window clipped at movie end, survives span more minutes.
	lo, hi, ok = p.Window(222)
	if !ok || lo != 118 || hi != 120 {
		t.Errorf("drain window [%g,%g] want [118,120]", lo, hi)
	}
	if p.ExpireTime() != 224 {
		t.Errorf("expire %g want 224", p.ExpireTime())
	}
	if !p.Expired(224) || p.Expired(223.9) {
		t.Error("expiry boundaries wrong")
	}
	if _, _, ok := p.Window(224); ok {
		t.Error("window after expiry")
	}
}

func TestPartitionLagOf(t *testing.T) {
	p, _ := NewPartition(0, 5, 0, 100)
	lag, ok := p.LagOf(50, 47)
	if !ok || math.Abs(lag-3) > 1e-12 {
		t.Errorf("lag %g ok=%v want 3", lag, ok)
	}
	if _, ok := p.LagOf(50, 40); ok {
		t.Error("join outside window must fail")
	}
	// Joining at the head has zero lag.
	lag, ok = p.LagOf(50, 50)
	if !ok || lag != 0 {
		t.Errorf("head join lag %g ok=%v", lag, ok)
	}
}

func TestPartitionValidation(t *testing.T) {
	cases := []struct{ start, span, delta, l float64 }{
		{0, 5, 0, 0},
		{0, -1, 0, 100},
		{0, 101, 0, 100},
		{0, 5, -1, 100},
		{math.NaN(), 5, 0, 100},
	}
	for i, c := range cases {
		if _, err := NewPartition(c.start, c.span, c.delta, c.l); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: want ErrBadParam, got %v", i, err)
		}
	}
}

func TestPartitionDeltaAccounting(t *testing.T) {
	p, _ := NewPartition(0, 4, 0.5, 120)
	if p.Gross() != 4.5 {
		t.Errorf("gross %g want 4.5", p.Gross())
	}
	// δ does not extend the usable window.
	if p.EnrollmentOpen(4.4) {
		t.Error("delta must not extend enrollment")
	}
}

func TestZeroSpanPartition(t *testing.T) {
	// Pure batching: zero-width window covers only the exact head.
	p, _ := NewPartition(0, 0, 0, 100)
	if !p.Covers(50, 50) {
		t.Error("zero-span partition should cover exactly the head")
	}
	if p.Covers(50, 49.999) {
		t.Error("zero-span partition must not cover behind the head")
	}
	if p.ExpireTime() != 100 {
		t.Errorf("zero-span expiry %g want 100", p.ExpireTime())
	}
}

// Property: the window is always within [0, MovieLen], at most span wide,
// and Covers ⟺ pos ∈ Window.
func TestPropertyWindowInvariants(t *testing.T) {
	prop := func(startRaw, spanRaw, nowRaw, posRaw uint16) bool {
		start := float64(startRaw) / 100
		span := float64(spanRaw) / 65535 * 50
		now := float64(nowRaw) / 100
		pos := float64(posRaw) / 65535 * 120
		p, err := NewPartition(start, span, 0, 120)
		if err != nil {
			return false
		}
		lo, hi, ok := p.Window(now)
		if !ok {
			return !p.Covers(now, pos) || true // Covers must be false too
		}
		if lo < 0 || hi > 120 || hi-lo > span+1e-9 || lo > hi {
			return false
		}
		covers := p.Covers(now, pos)
		inWindow := pos >= lo && pos <= hi
		return covers == inWindow
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: pool conservation under random reserve/release.
func TestPropertyPoolConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewElasticPool()
		var held []float64
		var total, peak float64
		for i := 0; i < 100; i++ {
			if rng.Float64() < 0.6 {
				amt := rng.Float64() * 10
				if err := p.Reserve(amt); err != nil {
					return false
				}
				held = append(held, amt)
				total += amt
				peak = math.Max(peak, total)
			} else if len(held) > 0 {
				j := rng.Intn(len(held))
				if err := p.Release(held[j]); err != nil {
					return false
				}
				total -= held[j]
				held = append(held[:j], held[j+1:]...)
			}
			if math.Abs(p.InUse()-total) > 1e-6 || math.Abs(p.Peak()-peak) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

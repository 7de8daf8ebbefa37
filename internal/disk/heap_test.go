package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// scanPick is Allocate's disk choice as it was before the live-disk
// heap: a walk over every disk for the lowest-index least-loaded live
// disk that is not full, or -1 when there is none. It is the oracle the
// heap must match pick for pick.
func scanPick(a *Array) int {
	best := -1
	for i, l := range a.load {
		if !a.failed[i] && l < a.perDisk && (best == -1 || l < a.load[best]) {
			best = i
		}
	}
	return best
}

// wantAllocate predicts Allocate's outcome from the state before the
// call: the disk the scan picks, or the error Allocate must return.
func wantAllocate(a *Array) (int, error) {
	switch best := scanPick(a); {
	case a.transient > 0:
		return -1, ErrTransient
	case a.limit > 0 && a.inUse >= a.Capacity():
		return -1, ErrExhausted
	case best >= 0:
		return best, nil
	case a.elastic:
		return len(a.load), nil
	default:
		return -1, ErrExhausted
	}
}

// TestAllocateMatchesScan runs seeded random sequences of Allocate,
// Release, FailDisk, RepairDisk and InjectTransient on fixed, limited
// and elastic arrays: every Allocate must pick the disk (or fail with
// the error) the linear scan picks, and CheckInvariant, which covers
// the heap, must hold after every step.
func TestAllocateMatchesScan(t *testing.T) {
	kinds := []struct {
		name string
		make func() (*Array, error)
	}{
		{"fixed", func() (*Array, error) { return NewArray(7, 3) }},
		// 6 disks of 4 under a budget of 23: the budget, not the last
		// disk, caps the array.
		{"limited", func() (*Array, error) { return NewLimited(4, 23) }},
		{"elastic", func() (*Array, error) { return NewElastic(3) }},
	}
	for _, k := range kinds {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				a, err := k.make()
				if err != nil {
					t.Fatal(err)
				}
				var held []Slot
				// Each seed leans towards allocation or release, so runs
				// cover both a crowded array and a nearly empty one.
				pAlloc := 0.3 + 0.4*rng.Float64()
				for step := 0; step < 600; step++ {
					what := ""
					switch r := rng.Float64(); {
					case r < pAlloc:
						what = "allocate"
						want, wantErr := wantAllocate(a)
						s, err := a.Allocate()
						switch {
						case wantErr != nil && !errors.Is(err, wantErr):
							t.Fatalf("step %d: allocate: err %v, scan %v", step, err, wantErr)
						case wantErr == nil && err != nil:
							t.Fatalf("step %d: allocate: err %v, scan picked disk %d", step, err, want)
						case wantErr == nil && s.Disk() != want:
							t.Fatalf("step %d: allocate: disk %d, scan picked %d", step, s.Disk(), want)
						}
						if err == nil {
							held = append(held, s)
						}
					case r < 0.85:
						if len(held) == 0 {
							continue
						}
						what = "release"
						i := rng.Intn(len(held))
						held[i].Release()
						held[i] = held[len(held)-1]
						held = held[:len(held)-1]
					case r < 0.91:
						if a.Disks() == 0 {
							continue
						}
						what = "fail"
						d := rng.Intn(a.Disks())
						if _, err := a.FailDisk(d); err != nil {
							t.Fatal(err)
						}
					case r < 0.97:
						if a.Disks() == 0 {
							continue
						}
						what = "repair"
						d := rng.Intn(a.Disks())
						if err := a.RepairDisk(d); err != nil {
							t.Fatal(err)
						}
					default:
						what = "transient"
						a.InjectTransient(rng.Intn(3))
					}
					if err := a.CheckInvariant(); err != nil {
						t.Fatalf("step %d (%s): %v", step, what, err)
					}
					live := 0
					for _, f := range a.failed {
						if !f {
							live++
						}
					}
					capacity := live * a.perDisk
					if a.limit > 0 {
						capacity = min(capacity, a.limit)
					}
					if a.LiveDisks() != live || a.Capacity() != capacity || a.InUse()+a.Lost() != len(held) {
						t.Fatalf("step %d (%s): live %d capacity %d inUse+lost %d, want %d, %d, %d held",
							step, what, a.LiveDisks(), a.Capacity(), a.InUse()+a.Lost(), live, capacity, len(held))
					}
				}
			})
		}
	}
}

// A repair that finds orphans still held re-admits them only up to the
// stream budget; the rest stay lost until released.
func TestRepairKeepsStreamBudget(t *testing.T) {
	a, err := NewLimited(4, 23) // 6 disks of 4, one slot short of 24
	if err != nil {
		t.Fatal(err)
	}
	var onDisk0 []Slot
	for i := 0; i < 23; i++ {
		s, err := a.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if s.Disk() == 0 {
			onDisk0 = append(onDisk0, s)
		}
	}
	if len(onDisk0) != 4 {
		t.Fatalf("disk 0 holds %d streams, want 4", len(onDisk0))
	}
	if _, err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	// Survivors fill to their 20 slots while disk 0's orphans stay held.
	for a.InUse() < 20 {
		if _, err := a.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 23 || a.Lost() != 1 {
		t.Fatalf("after repair inUse=%d lost=%d, want 23/1", a.InUse(), a.Lost())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	onDisk0[0].Release() // the held-over slot goes first
	if a.InUse() != 23 || a.Lost() != 0 {
		t.Errorf("after a release inUse=%d lost=%d, want 23/0", a.InUse(), a.Lost())
	}
	onDisk0[1].Release()
	if a.InUse() != 22 || a.Lost() != 0 {
		t.Errorf("after two releases inUse=%d lost=%d, want 22/0", a.InUse(), a.Lost())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariant must catch a corrupted heap, not just bad counters.
func TestCheckInvariantCatchesHeapDamage(t *testing.T) {
	fresh := func() *Array {
		a, _ := NewArray(5, 4)
		for i := 0; i < 7; i++ {
			if _, err := a.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.FailDisk(3); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	damage := map[string]func(a *Array){
		"order":        func(a *Array) { a.heap[0], a.heap[len(a.heap)-1] = a.heap[len(a.heap)-1], a.heap[0] },
		"position":     func(a *Array) { a.at[a.heap[1]] = 0 },
		"failed held":  func(a *Array) { a.at[3] = 0 },
		"live missing": func(a *Array) { a.heap = a.heap[:len(a.heap)-1] },
	}
	for name, f := range damage {
		a := fresh()
		f(a)
		if err := a.CheckInvariant(); err == nil {
			t.Errorf("%s: damage not caught", name)
		}
	}
}

// BenchmarkArrayAllocate times steady Allocate/Release pairs on an
// elastic array grown to 1,000 disks of 10 streams, kept nearly full so
// every pick chooses among many equally loaded disks.
func BenchmarkArrayAllocate(b *testing.B) {
	const disks, perDisk = 1000, 10
	a, err := NewElastic(perDisk)
	if err != nil {
		b.Fatal(err)
	}
	held := make([]Slot, 0, disks*perDisk)
	for len(held) < disks*perDisk {
		s, err := a.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		held = append(held, s)
	}
	rng := rand.New(rand.NewSource(1))
	// Free one stream in ten so Allocate has a choice to make.
	for i := 0; i < len(held)/10; i++ {
		j := rng.Intn(len(held))
		held[j].Release()
		held[j] = held[len(held)-1]
		held = held[:len(held)-1]
	}
	if a.Disks() != disks {
		b.Fatalf("grew to %d disks, want %d", a.Disks(), disks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(held))
		held[j].Release()
		s, err := a.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		held[j] = s
	}
}

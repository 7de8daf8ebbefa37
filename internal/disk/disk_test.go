package disk

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamsPerDiskExample2(t *testing.T) {
	// Paper Example 2: 5 MB/s disk, 4 Mbps MPEG-2 → 10 streams per disk.
	if got := StreamsPerDisk(5, 4); got != 10 {
		t.Errorf("StreamsPerDisk(5,4) = %d want 10", got)
	}
	if got := StreamsPerDisk(5, 3); got != 13 { // floor(40/3)
		t.Errorf("StreamsPerDisk(5,3) = %d want 13", got)
	}
	if StreamsPerDisk(0, 4) != 0 || StreamsPerDisk(5, 0) != 0 {
		t.Error("degenerate rates must give 0")
	}
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 10); !errors.Is(err, ErrBadParam) {
		t.Error("zero disks must fail")
	}
	if _, err := NewArray(3, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero per-disk must fail")
	}
	if _, err := NewElastic(0); !errors.Is(err, ErrBadParam) {
		t.Error("elastic zero per-disk must fail")
	}
}

func TestAllocateUntilExhausted(t *testing.T) {
	a, err := NewArray(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 6 {
		t.Fatalf("capacity %d want 6", a.Capacity())
	}
	var slots []Slot
	for i := 0; i < 6; i++ {
		s, err := a.Allocate()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		slots = append(slots, s)
	}
	if a.InUse() != 6 || a.Utilization() != 1 {
		t.Errorf("in use %d util %g", a.InUse(), a.Utilization())
	}
	if _, err := a.Allocate(); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted, got %v", err)
	}
	if a.Failures() != 1 {
		t.Errorf("failures %d want 1", a.Failures())
	}
	slots[0].Release()
	if a.InUse() != 5 {
		t.Errorf("after release: in use %d want 5", a.InUse())
	}
	if _, err := a.Allocate(); err != nil {
		t.Errorf("alloc after release failed: %v", err)
	}
	if a.Peak() != 6 {
		t.Errorf("peak %d want 6", a.Peak())
	}
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	a, _ := NewArray(1, 2)
	s, _ := a.Allocate()
	s.Release()
	s.Release()
	if a.InUse() != 0 {
		t.Errorf("double release corrupted count: %d", a.InUse())
	}
	var nilSlot *Slot
	nilSlot.Release() // must not panic
}

// An elastic-array lease is a value: an Allocate/Release pair allocates
// nothing, so the simulator's per-viewer stream leases stay off the
// heap.
func TestElasticLeaseAllocatesNothing(t *testing.T) {
	a, err := NewElastic(10)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		s, err := a.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	})
	if avg != 0 {
		t.Errorf("an Allocate/Release lease allocates %.2f objects; want 0", avg)
	}
	if a.InUse() != 0 {
		t.Errorf("in use %d after every lease was released", a.InUse())
	}
}

func TestLoadBalancing(t *testing.T) {
	a, _ := NewArray(4, 10)
	for i := 0; i < 8; i++ {
		if _, err := a.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded placement spreads 8 streams as 2 per disk.
	if a.MaxDiskLoad() != 2 {
		t.Errorf("max disk load %d want 2", a.MaxDiskLoad())
	}
}

func TestElasticGrows(t *testing.T) {
	a, err := NewElastic(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := a.Allocate(); err != nil {
			t.Fatalf("elastic alloc %d failed: %v", i, err)
		}
	}
	if a.Disks() != 3 {
		t.Errorf("disks %d want 3", a.Disks())
	}
	if a.Peak() != 25 {
		t.Errorf("peak %d want 25", a.Peak())
	}
	if a.Failures() != 0 {
		t.Error("elastic must never fail")
	}
}

// Property: allocations minus releases always equals InUse, never exceeds
// capacity in fixed mode, and slots balance across disks within one.
func TestPropertyConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewArray(3, 4)
		if err != nil {
			return false
		}
		var live []Slot
		for op := 0; op < 200; op++ {
			if rng.Float64() < 0.6 {
				s, err := a.Allocate()
				if err == nil {
					live = append(live, s)
				} else if a.InUse() != a.Capacity() {
					return false // failed while slots were free
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				live[i].Release()
				live = append(live[:i], live[i+1:]...)
			}
			if a.InUse() != len(live) || a.InUse() > a.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewLimitedEnforcesExactCap(t *testing.T) {
	a, err := NewLimited(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 3 {
		t.Fatalf("capacity %d want 3", a.Capacity())
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Allocate(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Allocate(); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted at limit, got %v", err)
	}
	if a.Peak() != 3 {
		t.Errorf("peak %d want 3", a.Peak())
	}
	// Limit spanning multiple disks.
	b, err := NewLimited(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Disks() != 3 || b.Capacity() != 5 {
		t.Errorf("disks=%d capacity=%d want 3, 5", b.Disks(), b.Capacity())
	}
	if _, err := NewLimited(0, 5); !errors.Is(err, ErrBadParam) {
		t.Error("zero perDisk must fail")
	}
	if _, err := NewLimited(5, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero limit must fail")
	}
}

func TestFailDiskOrphansAndCapacity(t *testing.T) {
	a, err := NewArray(3, 4) // 12 slots
	if err != nil {
		t.Fatal(err)
	}
	var slots []Slot
	for i := 0; i < 9; i++ { // 3 per disk, balanced
		s, err := a.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	orphans, err := a.FailDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	if orphans != 3 {
		t.Errorf("orphans %d want 3", orphans)
	}
	if a.Capacity() != 8 || a.InUse() != 6 || a.Lost() != 3 {
		t.Errorf("cap=%d inUse=%d lost=%d want 8/6/3", a.Capacity(), a.InUse(), a.Lost())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Allocation skips the failed disk.
	for i := 0; i < 2; i++ {
		s, err := a.Allocate()
		if err != nil {
			t.Fatalf("alloc on survivors: %v", err)
		}
		if s.Disk() == 0 {
			t.Error("allocated on a failed disk")
		}
	}
	if _, err := a.Allocate(); !errors.Is(err, ErrExhausted) {
		t.Errorf("survivors full: want ErrExhausted, got %v", err)
	}
	// Double-fail is a no-op; bad index rejected.
	if n, err := a.FailDisk(0); err != nil || n != 0 {
		t.Errorf("re-fail: %d, %v", n, err)
	}
	if _, err := a.FailDisk(9); !errors.Is(err, ErrNoDisk) {
		t.Errorf("want ErrNoDisk, got %v", err)
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Releasing a slot whose disk has failed must not return the slot to
// the live pool: capacity and free count stay unchanged.
func TestReleaseOnFailedDiskStaysOutOfPool(t *testing.T) {
	a, err := NewArray(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk0 []Slot
	for i := 0; i < 4; i++ {
		s, err := a.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if s.Disk() == 0 {
			onDisk0 = append(onDisk0, s)
		}
	}
	if _, err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	free := a.Capacity() - a.InUse()
	for _, s := range onDisk0 {
		s.Release()
	}
	if got := a.Capacity() - a.InUse(); got != free {
		t.Errorf("release on failed disk changed free slots: %d -> %d", free, got)
	}
	if a.Lost() != 0 {
		t.Errorf("lost %d want 0 after orphan releases", a.Lost())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Full survivors still reject.
	if _, err := a.Allocate(); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted, got %v", err)
	}
	// Repair restores the spindle's slots.
	if err := a.RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 4 {
		t.Errorf("capacity after repair %d want 4", a.Capacity())
	}
	if _, err := a.Allocate(); err != nil {
		t.Errorf("alloc after repair: %v", err)
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairWithHeldOrphans(t *testing.T) {
	a, _ := NewArray(1, 3)
	s1, _ := a.Allocate()
	s2, _ := a.Allocate()
	if _, err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || a.Lost() != 2 {
		t.Fatalf("inUse=%d lost=%d", a.InUse(), a.Lost())
	}
	// Orphan released while failed, the other still held at repair time.
	s1.Release()
	if err := a.RepairDisk(0); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 1 || a.Lost() != 0 {
		t.Errorf("after repair inUse=%d lost=%d want 1/0", a.InUse(), a.Lost())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	s2.Release()
	if a.InUse() != 0 {
		t.Errorf("inUse %d want 0", a.InUse())
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectTransient(t *testing.T) {
	a, _ := NewArray(2, 2)
	a.InjectTransient(2)
	for i := 0; i < 2; i++ {
		if _, err := a.Allocate(); !errors.Is(err, ErrTransient) {
			t.Fatalf("glitch %d: want ErrTransient, got %v", i, err)
		}
	}
	if _, err := a.Allocate(); err != nil {
		t.Errorf("post-glitch alloc: %v", err)
	}
	if a.TransientFailures() != 2 || a.Failures() != 2 {
		t.Errorf("transients=%d failures=%d want 2/2", a.TransientFailures(), a.Failures())
	}
	a.InjectTransient(-1) // ignored
	if _, err := a.Allocate(); err != nil {
		t.Errorf("negative injection must be ignored: %v", err)
	}
}

func TestLimitedCapacityShrinksWithFailures(t *testing.T) {
	a, err := NewLimited(2, 5) // 3 disks: 2+2+1 capped at 5
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 4 { // 2 live disks × 2, below the 5-stream budget
		t.Fatalf("capacity %d want 4", a.Capacity())
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Allocate(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Allocate(); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted at shrunken capacity, got %v", err)
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Property: under random alloc/release/fail/repair the invariant holds
// and released failed-disk slots never rejoin the pool early.
func TestPropertyInvariantUnderFaults(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewArray(4, 3)
		if err != nil {
			return false
		}
		var live []Slot
		for op := 0; op < 400; op++ {
			switch r := rng.Float64(); {
			case r < 0.45:
				if s, err := a.Allocate(); err == nil {
					live = append(live, s)
				}
			case r < 0.75 && len(live) > 0:
				i := rng.Intn(len(live))
				live[i].Release()
				live = append(live[:i], live[i+1:]...)
			case r < 0.9:
				if _, err := a.FailDisk(rng.Intn(4)); err != nil {
					return false
				}
			default:
				if err := a.RepairDisk(rng.Intn(4)); err != nil {
					return false
				}
			}
			if err := a.CheckInvariant(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestElasticFailAndGrow(t *testing.T) {
	a, _ := NewElastic(2)
	s, _ := a.Allocate() // provisions disk 0
	if _, err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	// Elastic arrays grow past dead spindles.
	s2, err := a.Allocate()
	if err != nil {
		t.Fatalf("elastic alloc after failure: %v", err)
	}
	if s2.Disk() == 0 {
		t.Error("allocated on the failed disk")
	}
	s.Release()
	s2.Release()
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

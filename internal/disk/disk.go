// Package disk models the VOD server's disk subsystem as an array of
// disks, each able to sustain a bounded number of concurrent video
// streams. An I/O stream — the unit the paper economizes — is a slot on
// one disk sized by the ratio of disk bandwidth to the video bit rate
// (paper §5, Example 2: a 5 MB/s SCSI disk carries ten 4 Mbps MPEG-2
// streams).
//
// The array supports a fixed provisioned capacity (allocation fails when
// exhausted, modeling admission control) or elastic mode (capacity grows
// on demand and the peak is recorded, used when an experiment measures
// how many streams a policy needs rather than enforcing a budget).
package disk

import (
	"errors"
	"fmt"
	"math"

	"vodalloc/internal/resilience"
)

// ErrExhausted is returned by Allocate when every provisioned stream slot
// is in use.
var ErrExhausted = errors.New("disk: stream slots exhausted")

// ErrBadParam reports invalid constructor parameters.
var ErrBadParam = errors.New("disk: invalid parameter")

// ErrTransient is returned by Allocate while injected transient faults
// are pending (see InjectTransient): the allocation failed, but slots
// may well be free — callers should retry with RetryBackoff.
var ErrTransient = errors.New("disk: transient allocation fault")

// RetryBackoff is the backoff schedule recommended for retrying
// allocations rejected with ErrTransient or ErrExhausted: doubling from
// half a time unit. The schedule is unit-agnostic (resilience.Backoff
// delays are plain float64s); the simulator interprets the delays as
// simulated minutes. Both the degraded-viewer and blocked-VCR retry
// chains in internal/sim derive their delays from this one policy, so
// tuning it adjusts every caller coherently.
var RetryBackoff = resilience.Backoff{Base: 0.5, Factor: 2}

// ErrNoDisk reports a disk index outside the array.
var ErrNoDisk = errors.New("disk: no such disk")

// StreamsPerDisk returns how many streams of rate streamMbps (megabits
// per second) one disk with bandwidth diskMBps (megabytes per second)
// sustains: ⌊diskMBps · 8 / streamMbps⌋.
func StreamsPerDisk(diskMBps, streamMbps float64) int {
	if !(diskMBps > 0) || !(streamMbps > 0) {
		return 0
	}
	return int(math.Floor(diskMBps * 8 / streamMbps))
}

// Slot is a lease on one I/O stream, held by value: a lease allocates
// nothing. The zero Slot holds no lease. Release it back to the array
// when the stream ends; Release clears the Slot, so releasing it twice
// is a no-op. A copy of a held Slot is the same lease: release only one.
type Slot struct {
	arr  *Array
	disk int
}

// Held reports whether the slot holds a lease.
func (s Slot) Held() bool { return s.arr != nil }

// Disk returns the index of the disk carrying this stream.
func (s Slot) Disk() int { return s.disk }

// Release returns the lease to the array and clears the slot. Releasing
// a zero (or already released) Slot, or a nil *Slot, is a no-op.
func (s *Slot) Release() {
	if s == nil || s.arr == nil {
		return
	}
	s.arr.release(s.disk)
	*s = Slot{}
}

// Array is a collection of identical disks with per-disk stream slots.
// Not safe for concurrent use; the simulator is single-threaded.
//
// Disks can be taken out of service with FailDisk and returned with
// RepairDisk: a failed disk's slots leave the provisioned pool, and the
// streams it carried are orphaned — their slots stay charged against
// the dead spindle until released, and Release on such a slot does NOT
// return it to the live pool. A repair re-admits held orphans only up
// to the stream budget; the rest stay lost until released.
//
// The live disks sit in a binary min-heap ordered by (load, index), so
// the least-loaded disk Allocate wants is the root, and every load
// change, failure, repair and elastic growth costs O(log disks).
type Array struct {
	perDisk int
	load    []int  // streams in use per disk (live or failed)
	failed  []bool // per-disk failure flag
	// heap holds the live disks' indices in (load, index) heap order;
	// its length is the live-disk count. at[i] is disk i's position in
	// heap, or -1 while disk i is failed.
	heap []int
	at   []int
	// excess counts, per live disk, the slots its repair found held past
	// the stream budget; they stay lost until released.
	excess  []int
	inUse   int // allocated slots on live disks, excess aside
	lost    int // allocated slots on failed disks, plus excess
	peak    int
	elastic bool
	limit   int // total stream cap (0 = slots only)
	// transient holds the number of injected allocation faults still
	// pending; while positive, Allocate fails with ErrTransient.
	transient int
	// lifetime counters
	allocs, failures, transients uint64
}

// NewArray builds an array of numDisks disks, each sustaining perDisk
// concurrent streams.
func NewArray(numDisks, perDisk int) (*Array, error) {
	if numDisks < 1 || perDisk < 1 {
		return nil, fmt.Errorf("%w: numDisks=%d perDisk=%d must be positive", ErrBadParam, numDisks, perDisk)
	}
	return newArray(numDisks, perDisk), nil
}

// newArray provisions numDisks empty live disks. Equal loads make the
// identity order a valid heap.
func newArray(numDisks, perDisk int) *Array {
	a := &Array{perDisk: perDisk, load: make([]int, numDisks), failed: make([]bool, numDisks),
		heap: make([]int, numDisks), at: make([]int, numDisks), excess: make([]int, numDisks)}
	for i := range a.heap {
		a.heap[i], a.at[i] = i, i
	}
	return a
}

// NewElastic builds an array that adds disks (of perDisk slots each) as
// demand requires, never failing allocation. Peak() reports the
// high-water stream count, the quantity sizing experiments measure.
func NewElastic(perDisk int) (*Array, error) {
	if perDisk < 1 {
		return nil, fmt.Errorf("%w: perDisk=%d must be positive", ErrBadParam, perDisk)
	}
	return &Array{perDisk: perDisk, elastic: true}, nil
}

// NewLimited builds an array provisioned with exactly limit stream slots
// spread over ⌈limit/perDisk⌉ disks; allocation fails once limit streams
// are in use even if the last disk has spare slots (the budget, not the
// spindles, is the constraint being modeled).
func NewLimited(perDisk, limit int) (*Array, error) {
	if perDisk < 1 || limit < 1 {
		return nil, fmt.Errorf("%w: perDisk=%d limit=%d must be positive", ErrBadParam, perDisk, limit)
	}
	a := newArray((limit+perDisk-1)/perDisk, perDisk)
	a.limit = limit
	return a, nil
}

// Capacity returns the currently provisioned stream capacity: slots on
// live disks, capped by the stream budget when one is set. Failed disks
// contribute nothing.
func (a *Array) Capacity() int {
	c := a.LiveDisks() * a.perDisk
	if a.limit > 0 && a.limit < c {
		c = a.limit
	}
	return c
}

// Disks returns the number of disks currently provisioned.
func (a *Array) Disks() int { return len(a.load) }

// LiveDisks returns the number of provisioned disks in service.
func (a *Array) LiveDisks() int { return len(a.heap) }

// FailedDisks returns the number of disks currently out of service.
func (a *Array) FailedDisks() int { return len(a.load) - a.LiveDisks() }

// InUse returns the number of allocated streams.
func (a *Array) InUse() int { return a.inUse }

// Peak returns the maximum concurrent streams observed.
func (a *Array) Peak() int { return a.peak }

// Allocations returns the lifetime number of successful allocations.
func (a *Array) Allocations() uint64 { return a.allocs }

// Failures returns the lifetime number of rejected allocations
// (exhaustion and transient faults alike).
func (a *Array) Failures() uint64 { return a.failures }

// TransientFailures returns the lifetime number of allocations rejected
// by injected transient faults (a subset of Failures).
func (a *Array) TransientFailures() uint64 { return a.transients }

// Lost returns the number of allocated slots currently stranded on
// failed disks (orphans not yet released by their holders), plus those
// a repair found held past the stream budget.
func (a *Array) Lost() int { return a.lost }

// Allocate leases a stream slot on the least-loaded live disk, balancing
// load across spindles. In elastic mode a new disk is provisioned when
// all live disks are full; otherwise ErrExhausted is returned. While
// injected transient faults are pending, Allocate fails with
// ErrTransient instead.
func (a *Array) Allocate() (Slot, error) {
	if a.transient > 0 {
		a.transient--
		a.failures++
		a.transients++
		return Slot{}, fmt.Errorf("%w (%d more pending)", ErrTransient, a.transient)
	}
	if a.limit > 0 && a.inUse >= a.Capacity() {
		a.failures++
		return Slot{}, fmt.Errorf("%w: %d streams at the provisioned limit", ErrExhausted, a.inUse)
	}
	// The root is the lowest-index least-loaded live disk; when it is
	// full, every live disk is.
	if len(a.heap) == 0 || a.load[a.heap[0]] >= a.perDisk {
		if !a.elastic {
			a.failures++
			return Slot{}, fmt.Errorf("%w: %d streams on %d live disks", ErrExhausted, a.inUse, a.LiveDisks())
		}
		a.load = append(a.load, 0)
		a.failed = append(a.failed, false)
		a.at = append(a.at, 0)
		a.excess = append(a.excess, 0)
		a.push(len(a.load) - 1)
	}
	best := a.heap[0]
	a.load[best]++
	a.down(0)
	a.inUse++
	a.allocs++
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
	return Slot{arr: a, disk: best}, nil
}

func (a *Array) release(diskID int) {
	a.load[diskID]--
	if a.failed[diskID] {
		// The slot sat on a dead spindle: it was already removed from the
		// live accounting when the disk failed and must NOT rejoin the
		// free pool until the disk is repaired.
		a.lost--
		return
	}
	if a.excess[diskID] > 0 {
		a.excess[diskID]--
		a.lost--
	} else {
		a.inUse--
	}
	a.up(a.at[diskID])
}

// FailDisk takes disk i out of service and returns the number of
// allocated streams orphaned on it. Those slots stay charged to the
// dead disk until their holders call Release; Allocate skips the disk
// until RepairDisk. Failing an already-failed disk is a no-op.
func (a *Array) FailDisk(i int) (orphans int, err error) {
	if i < 0 || i >= len(a.load) {
		return 0, fmt.Errorf("%w: %d of %d", ErrNoDisk, i, len(a.load))
	}
	if a.failed[i] {
		return 0, nil
	}
	a.failed[i] = true
	a.remove(i)
	orphans = a.load[i]
	a.inUse -= orphans - a.excess[i]
	a.lost += orphans - a.excess[i]
	a.excess[i] = 0
	return orphans, nil
}

// RepairDisk returns disk i to service. Slots still held on it (not yet
// released by their orphaned owners) rejoin the live accounting, as
// many as the stream budget has room for; the rest stay lost until
// released. Repairing a live disk is a no-op.
func (a *Array) RepairDisk(i int) error {
	if i < 0 || i >= len(a.load) {
		return fmt.Errorf("%w: %d of %d", ErrNoDisk, i, len(a.load))
	}
	if !a.failed[i] {
		return nil
	}
	a.failed[i] = false
	a.push(i)
	back := a.load[i]
	if a.limit > 0 {
		back = min(back, a.limit-a.inUse)
	}
	a.excess[i] = a.load[i] - back
	a.inUse += back
	a.lost -= back
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
	return nil
}

// DiskFailed reports whether disk i is out of service.
func (a *Array) DiskFailed(i int) bool {
	return i >= 0 && i < len(a.failed) && a.failed[i]
}

// InjectTransient makes the next n calls to Allocate fail with
// ErrTransient, modeling controller hiccups rather than dead spindles.
func (a *Array) InjectTransient(n int) {
	if n > 0 {
		a.transient += n
	}
}

// CheckInvariant verifies the array's accounting: every per-disk load
// within [0, perDisk], in-use equal to the live-disk loads net of their
// excess, lost equal to the failed-disk loads plus that excess, and
// in-use + free == provisioned capacity (with free never negative). It
// also verifies the live-disk heap: each live disk held exactly once,
// at its recorded position, no failed disk held, and (load, index) heap
// order. It returns the first violation found.
func (a *Array) CheckInvariant() error {
	live, dead, liveDisks := 0, 0, 0
	for i, l := range a.load {
		if l < 0 || l > a.perDisk {
			return fmt.Errorf("disk: invariant: disk %d load %d outside [0, %d]", i, l, a.perDisk)
		}
		if x := a.excess[i]; x < 0 || x > l || a.failed[i] && x != 0 {
			return fmt.Errorf("disk: invariant: disk %d excess %d outside [0, %d]", i, x, l)
		}
		if a.failed[i] {
			dead += l
			if a.at[i] != -1 {
				return fmt.Errorf("disk: invariant: failed disk %d in the heap at %d", i, a.at[i])
			}
			continue
		}
		live += l - a.excess[i]
		dead += a.excess[i]
		liveDisks++
		if p := a.at[i]; p < 0 || p >= len(a.heap) || a.heap[p] != i {
			return fmt.Errorf("disk: invariant: live disk %d not in the heap at its position %d", i, p)
		}
	}
	if liveDisks != len(a.heap) {
		return fmt.Errorf("disk: invariant: %d live disks, heap holds %d", liveDisks, len(a.heap))
	}
	for p := 1; p < len(a.heap); p++ {
		if a.less(a.heap[p], a.heap[(p-1)/2]) {
			return fmt.Errorf("disk: invariant: heap order broken at position %d", p)
		}
	}
	if live != a.inUse {
		return fmt.Errorf("disk: invariant: inUse %d != live-disk loads %d", a.inUse, live)
	}
	if dead != a.lost {
		return fmt.Errorf("disk: invariant: lost %d != failed-disk loads %d", a.lost, dead)
	}
	if free := a.Capacity() - a.inUse; free < 0 {
		return fmt.Errorf("disk: invariant: in-use %d exceeds provisioned %d", a.inUse, a.Capacity())
	}
	return nil
}

// Utilization returns the fraction of provisioned slots in use
// (0 when nothing is provisioned).
func (a *Array) Utilization() float64 {
	c := a.Capacity()
	if c == 0 {
		return 0
	}
	return float64(a.inUse) / float64(c)
}

// MaxDiskLoad returns the highest per-disk stream count, for skew checks.
func (a *Array) MaxDiskLoad() int {
	m := 0
	for _, l := range a.load {
		if l > m {
			m = l
		}
	}
	return m
}

// less orders disks for the heap: by load, then by index.
func (a *Array) less(i, j int) bool {
	return a.load[i] < a.load[j] || a.load[i] == a.load[j] && i < j
}

// swap exchanges heap positions p and q.
func (a *Array) swap(p, q int) {
	h := a.heap
	h[p], h[q] = h[q], h[p]
	a.at[h[p]], a.at[h[q]] = p, q
}

// up sifts the disk at heap position p toward the root.
func (a *Array) up(p int) {
	for p > 0 {
		q := (p - 1) / 2
		if !a.less(a.heap[p], a.heap[q]) {
			return
		}
		a.swap(p, q)
		p = q
	}
}

// down sifts the disk at heap position p toward the leaves.
func (a *Array) down(p int) {
	n := len(a.heap)
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && a.less(a.heap[r], a.heap[c]) {
			c = r
		}
		if !a.less(a.heap[c], a.heap[p]) {
			return
		}
		a.swap(p, c)
		p = c
	}
}

// push adds live disk i to the heap.
func (a *Array) push(i int) {
	a.at[i] = len(a.heap)
	a.heap = append(a.heap, i)
	a.up(a.at[i])
}

// remove takes disk i out of the heap.
func (a *Array) remove(i int) {
	p, last := a.at[i], len(a.heap)-1
	a.swap(p, last)
	a.heap = a.heap[:last]
	a.at[i] = -1
	if p < last {
		a.down(p)
		a.up(p)
	}
}

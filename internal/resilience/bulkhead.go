package resilience

// Bulkhead is a semaphore isolating one class of work from the rest of
// the process: at most Cap() holders at once; excess callers shed
// (TryAcquire). A nil *Bulkhead imposes no limit, so optional gating
// needs no branching at call sites.
type Bulkhead struct {
	sem chan struct{}
}

// NewBulkhead returns a bulkhead admitting capacity concurrent holders
// (minimum 1).
func NewBulkhead(capacity int) *Bulkhead {
	if capacity < 1 {
		capacity = 1
	}
	return &Bulkhead{sem: make(chan struct{}, capacity)}
}

// TryAcquire takes a slot without blocking, reporting whether one was
// free. Always true for a nil bulkhead.
func (b *Bulkhead) TryAcquire() bool {
	if b == nil {
		return true
	}
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot. Releasing more than acquired panics, as it
// indicates a bookkeeping bug.
func (b *Bulkhead) Release() {
	if b == nil {
		return
	}
	select {
	case <-b.sem:
	default:
		panic("resilience: Bulkhead.Release without matching acquire")
	}
}

// InUse returns the number of slots currently held; 0 for nil.
func (b *Bulkhead) InUse() int {
	if b == nil {
		return 0
	}
	return len(b.sem)
}

// Cap returns the bulkhead's capacity; 0 for nil.
func (b *Bulkhead) Cap() int {
	if b == nil {
		return 0
	}
	return cap(b.sem)
}

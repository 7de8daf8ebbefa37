// Package parallel provides the deterministic bounded worker pool used
// by every sweep in the repository: model-evaluation frontiers in
// internal/sizing, the figure/table generators in internal/experiments,
// and simulation replications in internal/sim.
//
// The central primitive is Map: run fn(i) for every index of a dense
// range on a bounded number of goroutines and collect the results in
// index order, so a parallel sweep is byte-for-byte identical to its
// sequential counterpart. Errors aggregate deterministically — among the
// items that failed before the sweep stopped, the one with the smallest
// index wins — and cancellation of the caller's context stops scheduling
// promptly.
//
// A Pool adds a machine-wide budget shared across independent Map calls
// (for example concurrent HTTP requests each running a plan search), so
// k concurrent sweeps of w workers each hold at most cap(pool) items in
// flight rather than k·w. Pool tokens are held only while fn runs; do
// not call Map against the same Pool from inside fn, or the outer items
// holding every token can starve the inner sweep.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Error reports the failure of one item of a Map sweep. Among the items
// that failed, the smallest index is reported, so the error a caller
// sees does not depend on worker count or scheduling. Unwrap exposes the
// item's own error for errors.Is/As.
type Error struct {
	// Index is the item that failed.
	Index int
	// Err is the error fn returned for it.
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("parallel: item %d: %v", e.Index, e.Err) }

// Unwrap returns the item's underlying error.
func (e *Error) Unwrap() error { return e.Err }

// Cause strips the item-index wrapper from a Map error, returning the
// underlying error unchanged when err is not a parallel error. Callers
// that format their own per-item message use this to avoid double
// prefixes.
func Cause(err error) error {
	if pe, ok := err.(*Error); ok {
		return pe.Err
	}
	return err
}

// Pool is a shared concurrency budget across independent Map calls. A
// nil *Pool imposes no shared cap (each Map is bounded only by its own
// worker count).
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting at most capacity items in flight at
// once across every Map that uses it. capacity <= 0 selects GOMAXPROCS.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, capacity)}
}

// Cap returns the pool's capacity; 0 for a nil pool.
func (p *Pool) Cap() int {
	if p == nil {
		return 0
	}
	return cap(p.sem)
}

// InUse returns the number of tokens currently held across every Map
// sharing the pool; 0 for a nil pool. Serving stacks export it so
// operators (and the chaos harness) can verify canceled requests do not
// leak pool capacity.
func (p *Pool) InUse() int {
	if p == nil {
		return 0
	}
	return len(p.sem)
}

func (p *Pool) acquire(ctx context.Context) error {
	if p == nil {
		return nil
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() {
	if p != nil {
		<-p.sem
	}
}

// Opts bounds one Map call. The zero value runs GOMAXPROCS workers with
// no shared pool.
type Opts struct {
	// Workers caps the goroutines this call spawns; <= 0 selects
	// GOMAXPROCS (or the pool's capacity when a pool is set). Workers=1
	// degenerates to a fully sequential sweep.
	Workers int
	// Pool, when non-nil, additionally bounds in-flight items across
	// every Map sharing it.
	Pool *Pool
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if c := o.Pool.Cap(); c > 0 {
		return c
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on at most o.Workers
// goroutines and returns the n results in index order. The first error
// (smallest failing index) cancels the remaining items and is returned
// wrapped in *Error; a canceled parent context returns ctx.Err(). fn
// must be safe for concurrent invocation; result order never depends on
// worker count.
func Map[T any](ctx context.Context, o Opts, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative item count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := o.workers()
	if workers > n {
		workers = n
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx == -1 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel() // stop scheduling further items
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := o.Pool.acquire(ctx); err != nil {
					return
				}
				v, err := fn(ctx, i)
				o.Pool.release()
				if err != nil {
					record(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, &Error{Index: firstIdx, Err: firstErr}
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

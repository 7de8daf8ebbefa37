package httpapi

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vodalloc/internal/parallel"
	"vodalloc/internal/resilience"
	"vodalloc/internal/sizing"
)

// Options configures the hardened handler stack returned by New.
// The zero value gets sane production defaults.
type Options struct {
	// Timeout is the per-request wall-clock budget; the request context
	// is canceled and 503 returned when it expires. Default 30s.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies; larger bodies get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// MaxInflightSim bounds concurrent /v1/simulate and /v1/replicate
	// requests (they burn a CPU each); excess load is shed with 503 +
	// Retry-After instead of queueing unboundedly. Default 4.
	MaxInflightSim int
	// Workers caps the total sizing-sweep goroutines across all in-flight
	// /v1/plan and /v1/curve requests: they share one worker pool, so N
	// concurrent requests contend for Workers tokens instead of spawning
	// N × GOMAXPROCS goroutines. Default GOMAXPROCS.
	Workers int
	// Log, when non-nil, receives one access-log line per request with
	// method, path, status, duration, and outcome.
	Log *log.Logger
	// BreakerThreshold is how many consecutive simulation timeouts trip
	// the circuit to fast-fail 503s. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the tripped circuit stays open before
	// a half-open probe is admitted. Default 5s.
	BreakerCooldown time.Duration
	// State, when non-nil, is the lifecycle tracker behind /readyz and
	// the drain gate — the serving binary owns it so it can flip
	// readiness around listen/shutdown. When nil, New creates one
	// already marked ready (embedding and tests need no ceremony).
	State *State
	// Evaluator, when non-nil, is the model evaluator behind the sizing
	// endpoints — the serving binary owns it so it can load a persisted
	// memo cache before serving and save it back on drain. When nil, New
	// creates a fresh one. Its Pool is attached to the shared worker
	// pool unless already set.
	Evaluator *sizing.Evaluator
	// Cache, when non-nil, receives the cache persistence outcomes the
	// serving binary records (load at startup, saves on drain) and
	// surfaces them on /statusz.
	Cache *CacheState
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = maxBodyBytes
	}
	if o.MaxInflightSim <= 0 {
		o.MaxInflightSim = 4
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// New returns the hardened service handler: panic recovery, per-request
// timeouts, body limits, load shedding on the simulation endpoints, a
// circuit breaker over them, and the health/introspection endpoints.
// NewMux remains the bare routing table for embedding.
func New(o Options) http.Handler {
	o = o.withDefaults()
	state := o.State
	if state == nil {
		state = NewState()
		state.SetReady(true)
	}
	pool := parallel.NewPool(o.Workers)
	eval := o.Evaluator
	if eval == nil {
		eval = &sizing.Evaluator{}
	}
	if eval.Pool == nil {
		eval.Pool = pool
	}
	gate := resilience.NewBulkhead(o.MaxInflightSim)
	br := resilience.NewBreaker(o.BreakerThreshold, o.BreakerCooldown)

	cc := &ClusterCounters{}
	var h http.Handler = newMux(o.MaxBodyBytes, gate, br, eval, cc)
	// The deadline cancels r.Context when the budget runs out; each route
	// then answers 503 with timeoutBody (answerTimeout).
	h = withDeadline(o.Timeout, h)
	h = trackInflight(state, h)
	h = Recover(h)
	if o.Log != nil {
		h = AccessLog(o.Log, h)
	}

	// Health and introspection bypass the timeout, drain and in-flight
	// accounting: a probe must answer even when the API is saturated or
	// draining, and must not hold the gauges it reports.
	outer := http.NewServeMux()
	outer.HandleFunc("/healthz", handleHealthz)
	outer.Handle("/readyz", readyzHandler(state))
	outer.Handle("/statusz", statuszHandler(state, gate, pool, br, eval, o.Cache, cc))
	outer.Handle("/", h)
	return outer
}

// recoveredHeader marks a response produced by the panic-recovery
// middleware, so access logs can tell a recovered panic from an
// ordinary 500.
const recoveredHeader = "X-Recovered"

// Recover converts handler panics into 500 JSON errors instead of
// killing the connection (and, for unserved panics, the process).
// http.ErrAbortHandler keeps its usual abort semantics.
func Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			// Best effort: if the handler already wrote headers this is a
			// no-op on the status line, but the connection survives.
			w.Header().Set(recoveredHeader, "panic")
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// limitInflight sheds requests over the bulkhead's capacity with 503 +
// Retry-After rather than queueing them. The slot is released when the
// handler returns OR when the request context is canceled — whichever
// comes first — so a client that gives up (or a request that times out)
// frees its admission slot immediately even if the handler is still
// unwinding through its cancellation checkpoints.
func limitInflight(gate *resilience.Bulkhead, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !gate.TryAcquire() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("too many concurrent simulations; retry shortly"))
			return
		}
		release := sync.OnceFunc(gate.Release)
		stop := context.AfterFunc(r.Context(), release)
		defer func() {
			stop()
			release()
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutBody is the 503 body of a request whose deadline passed.
const timeoutBody = `{"error":"request timed out"}`

// withDeadline gives every request the budget d as its context
// deadline.
func withDeadline(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// answerTimeout caps next's wall time at the request context's
// deadline: when it passes, the client gets a 503 with timeoutBody even
// if next ignores its context and keeps running. A request without a
// deadline (the bare NewMux) runs next directly.
func answerTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, ok := r.Context().Deadline()
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		// The timeout handler's own budget ends no earlier than dl, so
		// the request context's expiry is what fires it.
		http.TimeoutHandler(next, time.Until(dl), timeoutBody).ServeHTTP(w, r)
	})
}

// breakerHeader marks a 503 produced by the open circuit breaker, so
// clients and the chaos harness can tell a fast-fail from an
// overload shed or a drain.
const breakerHeader = "X-Circuit"

// breakerGate wraps the simulation endpoints in a circuit breaker:
// repeated request timeouts trip it, after which calls fast-fail with
// 503 + Retry-After instead of queueing doomed work behind a struggling
// simulator. Each request records exactly one outcome — a failure when
// its deadline has passed, otherwise a success — so the breaker
// measures the slow-path symptom (timeouts), not client errors. The
// gate answers the timeout itself (answerTimeout) and records the
// outcome before it returns. net/http sends the buffered 503 only after
// the handler chain returns, so a client whose request timed out finds
// the circuit tripped on its next request, even when the handler
// ignores its context and is still running.
func breakerGate(br *resilience.Breaker, next http.Handler) http.Handler {
	next = answerTimeout(next)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !br.Allow() {
			w.Header().Set("Retry-After", strconv.Itoa(int(br.Cooldown().Seconds())+1))
			w.Header().Set(breakerHeader, "open")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("simulation circuit open after repeated timeouts; retry after cooldown"))
			return
		}
		defer func() {
			// Settled in a defer so a panicking handler still settles its
			// half-open probe instead of wedging the breaker.
			if dl, ok := r.Context().Deadline(); ok && !time.Now().Before(dl) {
				br.Failure()
			} else {
				br.Success()
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the status code for access logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// AccessLog writes one line per request: method, path, status, elapsed
// time, and the outcome class (ok, client-error, shed, recovered-panic,
// or error).
func AccessLog(l *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := "ok"
		switch {
		case rec.Header().Get(recoveredHeader) != "":
			outcome = "recovered-panic"
		case status == http.StatusServiceUnavailable:
			outcome = "shed"
		case status >= 500:
			outcome = "error"
		case status >= 400:
			outcome = "client-error"
		}
		l.Printf("%s %s %d %s %s", r.Method, r.URL.Path, status, time.Since(start).Round(time.Microsecond), outcome)
	})
}

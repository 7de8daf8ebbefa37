// Package resilience collects the small, dependency-free primitives the
// serving stack uses to stay predictable under overload and partial
// failure: exponential backoff (the simulator's degraded-mode retries),
// a circuit breaker for fast-failing endpoints whose backends keep
// timing out, and a bulkhead semaphore that isolates one class of work
// from another.
//
// Backoff computes delays as plain float64s, so the discrete-event
// simulator can interpret them as simulated minutes. Everything here is
// safe for concurrent use unless noted.
package resilience

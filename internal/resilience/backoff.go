package resilience

import "math"

// Backoff is an exponential backoff schedule. The zero value is not
// useful; set at least Base. Delays are unit-agnostic float64s — the
// simulator reads them as simulated minutes.
//
// Backoff values are immutable and safe to share.
type Backoff struct {
	// Base is the delay of attempt 0.
	Base float64
	// Factor is the per-attempt growth; values below 1 (including the
	// zero value) select the conventional doubling.
	Factor float64
}

// Delay returns the deterministic delay of the k-th attempt (k ≥ 0):
// Base·Factor^k. Negative attempts are treated as attempt 0.
func (b Backoff) Delay(attempt int) float64 {
	if attempt < 0 {
		attempt = 0
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	return b.Base * math.Pow(f, float64(attempt))
}

// Package workload generates the demand side of the experiments: movie
// catalogs with popularity skew, and the paper's reference workloads
// (the §4 validation workload and the §5 Example 1 three-movie system).
package workload

import (
	"errors"
	"fmt"
	"math"

	"vodalloc/internal/dist"
	"vodalloc/internal/vcr"
)

// ErrBadParam reports invalid workload parameters.
var ErrBadParam = errors.New("workload: invalid parameter")

// Movie describes one title's service-quality targets and behaviour.
type Movie struct {
	Name string
	// Length is l in minutes.
	Length float64
	// Wait is the maximum waiting time target w (paper Eq. 2 / C1).
	Wait float64
	// TargetHit is the minimum hit probability P* (paper C2).
	TargetHit float64
	// Profile is the VCR behaviour of this movie's viewers.
	Profile vcr.Profile
	// Popularity is a relative request weight (before normalization).
	Popularity float64
}

// Validate checks the movie's fields.
func (m Movie) Validate() error {
	switch {
	case !(m.Length > 0):
		return fmt.Errorf("%w: movie %q length %v", ErrBadParam, m.Name, m.Length)
	case !(m.Wait > 0) || m.Wait > m.Length:
		return fmt.Errorf("%w: movie %q wait %v", ErrBadParam, m.Name, m.Wait)
	case m.TargetHit < 0 || m.TargetHit > 1 || math.IsNaN(m.TargetHit):
		return fmt.Errorf("%w: movie %q target hit %v", ErrBadParam, m.Name, m.TargetHit)
	case m.Popularity < 0 || math.IsNaN(m.Popularity):
		return fmt.Errorf("%w: movie %q popularity %v", ErrBadParam, m.Name, m.Popularity)
	}
	return nil
}

// ZipfWeights returns n weights proportional to 1/rank^theta, normalized
// to sum to 1 — the standard popularity skew for VOD catalogs.
func ZipfWeights(n int, theta float64) ([]float64, error) {
	if n < 1 || theta < 0 || math.IsNaN(theta) {
		return nil, fmt.Errorf("%w: ZipfWeights(n=%d, theta=%v)", ErrBadParam, n, theta)
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w, nil
}

// SplitRate apportions a total arrival rate over the catalog by
// normalized popularity.
func SplitRate(total float64, movies []Movie) ([]float64, error) {
	if !(total > 0) {
		return nil, fmt.Errorf("%w: total rate %v", ErrBadParam, total)
	}
	var sum float64
	for _, m := range movies {
		sum += m.Popularity
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("%w: catalog has no popularity mass", ErrBadParam)
	}
	rates := make([]float64, len(movies))
	for i, m := range movies {
		rates[i] = total * m.Popularity / sum
	}
	return rates, nil
}

// MixedProfile returns the §4 reference VCR behaviour: P_FF = P_RW = 0.2,
// P_PAU = 0.6, every duration drawn from dur, think time between requests
// drawn from think.
func MixedProfile(dur, think dist.Distribution) vcr.Profile {
	return vcr.Profile{
		PFF: 0.2, PRW: 0.2, PPAU: 0.6,
		DurFF: dur, DurRW: dur, DurPAU: dur,
		Think: think,
	}
}

// Example1Movies returns the paper's §5 Example 1 catalog: three popular
// movies of 75, 60 and 90 minutes with maximum waits 0.1, 0.5 and 0.25
// minutes, VCR durations Gamma(2,4) (mean 8), Exp(5) and Exp(2), and a
// common hit target P* = 0.5.
func Example1Movies() []Movie {
	think := dist.MustExponential(15)
	return []Movie{
		{
			Name: "movie1", Length: 75, Wait: 0.1, TargetHit: 0.5,
			Profile:    MixedProfile(dist.MustGamma(2, 4), think),
			Popularity: 1,
		},
		{
			Name: "movie2", Length: 60, Wait: 0.5, TargetHit: 0.5,
			Profile:    MixedProfile(dist.MustExponential(5), think),
			Popularity: 1,
		},
		{
			Name: "movie3", Length: 90, Wait: 0.25, TargetHit: 0.5,
			Profile:    MixedProfile(dist.MustExponential(2), think),
			Popularity: 1,
		},
	}
}

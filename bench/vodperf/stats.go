package main

import (
	"math"
	"slices"
	"strconv"
)

// measurement is one reported number with the evidence behind it.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes; Beyond is,
	// for a tail percentile, how many of them lie above it.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"beyond,omitempty"`
}

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// tailPercentiles are the tail percentiles reported, each only when
// the sample count allows it.
var tailPercentiles = []float64{0.90, 0.95, 0.99}

// beyond is the number of samples out of n that lie above the
// p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// reportable reports whether the p-quantile of n samples has at least
// minBeyond samples above it.
func reportable(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// quantile returns the q-quantile of sorted, interpolating linearly
// between order statistics; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the three quartiles of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), so a spread computed here
// matches one computed from the same values there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentiles adds name's median (when withMedian) and every tail
// percentile its sample count supports to into, each with its sample
// count.
func percentiles(name string, samples []float64, withMedian bool, into map[string]measurement) {
	if len(samples) == 0 {
		return
	}
	s := sortedCopy(samples)
	if withMedian {
		into[name+"_p50_ms"] = measurement{Value: quantile(s, 0.5), Unit: "ms", Samples: len(s)}
	}
	for _, p := range tailPercentiles {
		if reportable(len(s), p) {
			into[name+"_p"+percentLabel(p)+"_ms"] = measurement{
				Value: quantile(s, p), Unit: "ms", Samples: len(s), Beyond: beyond(len(s), p),
			}
		}
	}
}

// percentLabel renders 0.95 as "95".
func percentLabel(p float64) string {
	return strconv.Itoa(int(math.Round(p * 100)))
}

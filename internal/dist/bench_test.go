package dist

import "testing"

// BenchmarkGammaCDF times one gamma CDF (the regularized incomplete
// gamma) per iteration, cycling through 256 arguments of one regime:
// shape 2 below its series/tail split at z = 3 and above it (to z = 40),
// shape 3 — the P(k+1) the Gamma(2, θ) running integral needs — over
// both, and the non-integer shape 2.5, which takes the general series and
// continued fraction. Reports CDF evaluations per second.
func BenchmarkGammaCDF(b *testing.B) {
	for _, c := range []struct {
		name     string
		shape    float64
		from, to float64
	}{
		{"k2-series", 2, 0.01, 3},
		{"k2-tail", 2, 3, 40},
		{"k3", 3, 0.01, 40},
		{"k2.5", 2.5, 0.01, 40},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := MustGamma(c.shape, 1)
			var xs [256]float64
			for i := range xs {
				xs[i] = c.from + (c.to-c.from)*float64(i)/float64(len(xs))
			}
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += d.CDF(xs[i%len(xs)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
			if sink < 0 {
				b.Fatal("negative CDF")
			}
		})
	}
}

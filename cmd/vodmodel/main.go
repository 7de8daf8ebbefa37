// Command vodmodel evaluates the analytic hit-probability model for one
// configuration, printing the per-operation probabilities and the
// hit_w / hit_j^i / P(end) decomposition.
//
// Usage:
//
//	vodmodel -l 120 -b 60 -n 30 -dur gamma:2:4
//	vodmodel -l 120 -w 1 -n 60 -dur exp:8 -pff 0.2 -prw 0.2 -ppau 0.6
//
// Give either -b (buffer minutes) or -w (maximum wait; buffer follows
// from Eq. 2 as B = l − n·w). The duration spec is family:params —
// exp:mean, gamma:shape:scale, uniform:a:b, det:v, weibull:shape:scale.
package main

import (
	"flag"
	"fmt"
	"os"

	"vodalloc/internal/analytic"
	"vodalloc/internal/dist"
)

func main() {
	l := flag.Float64("l", 120, "movie length, minutes")
	b := flag.Float64("b", -1, "total playback buffer, movie-minutes")
	w := flag.Float64("w", -1, "maximum waiting time, minutes (alternative to -b)")
	n := flag.Int("n", 30, "number of I/O streams / partitions")
	durSpec := flag.String("dur", "gamma:2:4", "duration distribution: exp:m | gamma:k:theta | uniform:a:b | det:v | weibull:k:lambda")
	rFF := flag.Float64("rff", 3, "fast-forward rate (multiples of playback)")
	rRW := flag.Float64("rrw", 3, "rewind rate (multiples of playback)")
	pFF := flag.Float64("pff", 0.2, "mix probability of FF")
	pRW := flag.Float64("prw", 0.2, "mix probability of RW")
	pPAU := flag.Float64("ppau", 0.6, "mix probability of PAU")
	flag.Parse()

	var cfg analytic.Config
	var err error
	switch {
	case *b >= 0 && *w >= 0:
		fatal(fmt.Errorf("give only one of -b and -w"))
	case *w >= 0:
		cfg, err = analytic.FromWait(*l, *w, *n, 1, *rFF, *rRW)
	case *b >= 0:
		cfg = analytic.Config{L: *l, B: *b, N: *n, RatePB: 1, RateFF: *rFF, RateRW: *rRW}
		err = cfg.Validate()
	default:
		fatal(fmt.Errorf("give one of -b or -w"))
	}
	if err != nil {
		fatal(err)
	}

	dur, err := dist.Parse(*durSpec)
	if err != nil {
		fatal(err)
	}
	model, err := analytic.New(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("config: l=%g B=%.2f n=%d w=%.3f partition=%.3f α=%.3f γ=%.3f\n",
		cfg.L, cfg.B, cfg.N, cfg.Wait(), cfg.PartitionSize(), cfg.Alpha(), cfg.GammaRW())
	for _, op := range []analytic.Op{analytic.FF, analytic.RW, analytic.PAU} {
		bd := model.BreakdownOf(op, dur)
		fmt.Printf("P(hit|%s) = %.4f  (within %.4f, %d jump terms %.4f, end %.4f)\n",
			op, bd.Total, bd.Within, len(bd.Jumps), sum(bd.Jumps), bd.End)
	}
	mix := analytic.Mix{PFF: *pFF, PRW: *pRW, PPAU: *pPAU, FF: dur, RW: dur, PAU: dur}
	p, err := model.HitMix(mix)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("P(hit) = %.4f under mix (FF %.2f, RW %.2f, PAU %.2f)\n", p, *pFF, *pRW, *pPAU)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vodmodel:", err)
	os.Exit(1)
}

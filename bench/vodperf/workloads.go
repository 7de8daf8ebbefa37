package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"time"

	"vodalloc/internal/cluster"
	"vodalloc/internal/dist"
	"vodalloc/internal/experiments"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

// workloadNames are the benchmark's workloads in the order -workload all
// runs them. Each repetition of one runs in a fresh child process.
var workloadNames = []string{"figures", "plan", "node_des", "node_fluid", "churn_blind", "churn_hedge", "serve"}

// repRunners runs one rep of each workload, plus the per-layer probes
// of a traced run.
var repRunners = map[string]func(c *child) error{
	"figures":     runFigures,
	"plan":        runPlan,
	"node_des":    func(c *child) error { return runNode(c, false) },
	"node_fluid":  func(c *child) error { return runNode(c, true) },
	"churn_blind": func(c *child) error { return runChurn(c, false) },
	"churn_hedge": func(c *child) error { return runChurn(c, true) },
	"serve":       runServe,
	"probes":      runProbes,
}

// paperRates are the §4 display rates (FF and RW at three times
// playback).
var paperRates = vcr.Rates{PB: 1, FF: 3, RW: 3}

// experiment is one of vodbench's experiments: it runs, prints its
// table into w and checks the bounds the experiment tests assert.
type experiment struct {
	name string
	run  func(o experiments.Options, w io.Writer) error
}

func exp[T any](name string, run func(experiments.Options) (T, error), print func(io.Writer, T), check func(T) error) experiment {
	return experiment{name, func(o experiments.Options, w io.Writer) error {
		r, err := run(o)
		if err != nil {
			return err
		}
		print(w, r)
		if check == nil {
			return nil
		}
		return check(r)
	}}
}

func fig7(name string, v experiments.Fig7Variant, maxDelta float64) experiment {
	return exp(name,
		func(o experiments.Options) ([]experiments.Fig7Series, error) { return experiments.Fig7(v, o) },
		func(w io.Writer, s []experiments.Fig7Series) { experiments.PrintFig7(w, v, s) },
		func(series []experiments.Fig7Series) error {
			if maxDelta == 0 {
				return nil
			}
			for _, s := range series {
				for _, p := range s.Points {
					if d := math.Abs(p.Model - p.Sim); d > maxDelta {
						return fmt.Errorf("w=%g n=%d: |model−sim| = %.4f > %g", s.Wait, p.N, d, maxDelta)
					}
				}
			}
			return nil
		})
}

// figureExperiments are the 17 experiments of `vodbench -exp all`, in
// its order. The checks are those of the experiments package's tests:
// fig7a within 0.06 of the model, verify within 0.08, the end-to-end
// reserve prediction within 30%. The scale table's wall-clock columns
// are zeroed so the printed output is a pure function of the seed.
func figureExperiments() []experiment {
	return []experiment{
		fig7("fig7a", experiments.Fig7FF, 0.06),
		fig7("fig7b", experiments.Fig7RW, 0),
		fig7("fig7c", experiments.Fig7PAU, 0),
		fig7("fig7d", experiments.Fig7Mixed, 0),
		exp("fig8", experiments.Fig8, experiments.PrintFig8, nil),
		exp("ex1", experiments.Example1, experiments.PrintExample1, nil),
		exp("fig9", experiments.Fig9, experiments.PrintFig9, nil),
		exp("ex2", experiments.Example2, experiments.PrintExample2, nil),
		exp("sens", experiments.Sensitivity, experiments.PrintSensitivity, nil),
		exp("piggyback", experiments.Piggyback, experiments.PrintPiggyback, nil),
		exp("e2e", experiments.EndToEnd, experiments.PrintEndToEnd, func(r experiments.EndToEndResult) error {
			if r.MeasuredDedicated <= 0 {
				return errors.New("no dedicated-stream usage measured")
			}
			if rel := math.Abs(r.PredictedDedicated-r.MeasuredDedicated) / r.MeasuredDedicated; rel > 0.3 {
				return fmt.Errorf("reserve prediction %.1f vs measured %.1f", r.PredictedDedicated, r.MeasuredDedicated)
			}
			return nil
		}),
		exp("faults", experiments.Faults, experiments.PrintFaults, nil),
		exp("cluster", experiments.Cluster, experiments.PrintCluster, nil),
		exp("churn", experiments.Churn, experiments.PrintChurn, nil),
		exp("gray", experiments.Gray, experiments.PrintGray, nil),
		exp("scale", func(o experiments.Options) ([]experiments.ScaleRow, error) {
			rows, err := experiments.Scale(o)
			for i := range rows {
				rows[i].Wall = 0
			}
			return rows, err
		}, experiments.PrintScale, nil),
		exp("verify", experiments.VerifyTable, experiments.PrintVerifyTable, func(rows []experiments.VerifyRow) error {
			for _, r := range rows {
				if r.AbsError > 0.08 {
					return fmt.Errorf("%v n=%d: |Δ| = %.4f > 0.08", r.Variant, r.N, r.AbsError)
				}
			}
			return nil
		}),
	}
}

// smallFigures is the smoke-test subset: every checked experiment plus
// the cheap ones.
var smallFigures = map[string]bool{"fig7a": true, "e2e": true, "faults": true, "churn": true, "gray": true, "verify": true}

// runFigures regenerates the paper's figures as `vodbench -exp all
// -quick` does, into a buffer. The answer is the whole suite; each
// experiment is one operation.
func runFigures(c *child) error {
	o := experiments.Options{Quick: true, Seed: c.Seed}
	var out bytes.Buffer
	id := fmt.Sprintf("r%d.figures", c.Rep)
	c.start()
	sp, end := c.tr.begin(id, c.root, "figures")
	t0 := time.Now()
	for _, e := range figureExperiments() {
		if c.Small && !smallFigures[e.name] {
			continue
		}
		ms := c.op(id, sp, "experiments."+e.name, func(int) error { return e.run(o, &out) }, nil)
		c.detail("experiments."+e.name+"_s", "s", ms/1e3)
	}
	c.answer(msSince(t0))
	end()
	c.rep.Digest = digest(out.Bytes())
	return nil
}

// planCatalogs draws k catalogs of one or two titles (alternately).
// The layout is stratified so that every seed asks for the same mix of
// cheap and expensive frontiers: title t takes wait target
// waits[t%4], a Gamma duration for even t/4 and an exponential one for
// odd, and a length in the (t%8)-th of eight 7.5-minute strata between
// 60 and 120 minutes. The seed draws the position inside each stratum
// and the duration's scale. No two titles share a (duration, length)
// pair, so the analytic layer's process-wide duration cache never
// serves one title's work to another.
func planCatalogs(seed int64, k int) [][]workload.Movie {
	rng := rand.New(rand.NewSource(seed))
	waits := []float64{0.25, 0.5, 1, 2}
	think := dist.MustExponential(15)
	seen := map[string]bool{}
	cats := make([][]workload.Movie, k)
	t := 0
	for i := range cats {
		for j := 0; j <= i%2; j++ {
			var m workload.Movie
			for {
				length := 60 + 7.5*(float64(t%8)+rng.Float64())
				var d dist.Distribution
				if (t/4)%2 == 0 {
					d = dist.MustGamma(2, 1.5+2.5*rng.Float64())
				} else {
					d = dist.MustExponential(3 + 5*rng.Float64())
				}
				m = workload.Movie{
					Name: fmt.Sprintf("t%03d", t), Length: length, Wait: waits[t%4], TargetHit: 0.5,
					Profile: workload.MixedProfile(d, think),
				}
				if key := fmt.Sprintf("%v/%v", d, length); !seen[key] {
					seen[key] = true
					break
				}
			}
			cats[i] = append(cats[i], m)
			t++
		}
	}
	return cats
}

// planCount is how many catalogs one plan rep plans cold; warmPasses is
// how many times it then replays them all warm.
const (
	planCount      = 24
	smallPlanCount = 4
	warmPasses     = 10
)

// runPlan plans seeded catalogs cold, each with a fresh evaluator (the
// answers), then replays them on their warmed evaluators. Every
// allocation must meet its title's P* and wait target, and a warm plan
// must equal its cold plan.
func runPlan(c *child) error {
	k := planCount
	if c.Small {
		k = smallPlanCount
	}
	cats := planCatalogs(c.Seed, k)
	evals := make([]*sizing.Evaluator, k)
	cold := make([]sizing.Plan, k)
	var misses uint64
	for i, movies := range cats {
		id := fmt.Sprintf("r%d.cold%d", c.Rep, i)
		evals[i] = &sizing.Evaluator{}
		c.answer(c.op(id, c.root, "plan.cold", func(sp int) error {
			return c.call(id, sp, "sizing.MinBufferPlan", func() (err error) {
				cold[i], err = evals[i].MinBufferPlan(movies, sizing.DefaultRates, 0, 0)
				return err
			})
		}, func() error { return checkPlan(movies, cold[i]) }))
		misses += evals[i].CacheStats().Misses
	}
	c.detail("evals_per_plan", "count", float64(misses)/float64(k))
	for pass := 0; pass < warmPasses; pass++ {
		for i, movies := range cats {
			id := fmt.Sprintf("r%d.warm%d.%d", c.Rep, pass, i)
			var warm sizing.Plan
			c.sample("warm", c.op(id, c.root, "plan.warm", func(sp int) error {
				return c.call(id, sp, "sizing.MinBufferPlan", func() (err error) {
					warm, err = evals[i].MinBufferPlan(movies, sizing.DefaultRates, 0, 0)
					return err
				})
			}, func() error {
				if !reflect.DeepEqual(warm, cold[i]) {
					return errors.New("warm plan differs from the cold plan")
				}
				return nil
			}))
		}
	}
	return nil
}

// checkPlan verifies that every allocation meets its title's hit target
// and that its maximum wait (l − B)/n stays within the title's bound.
func checkPlan(movies []workload.Movie, p sizing.Plan) error {
	if len(p.Allocs) != len(movies) {
		return fmt.Errorf("plan has %d allocations for %d titles", len(p.Allocs), len(movies))
	}
	for i, a := range p.Allocs {
		m := movies[i]
		if a.Hit < m.TargetHit {
			return fmt.Errorf("%s: hit %.4f below P* %.2f", m.Name, a.Hit, m.TargetHit)
		}
		if w := (m.Length - a.B) / float64(a.N); w > m.Wait+1e-9 {
			return fmt.Errorf("%s: wait %.4f above target %.4f", m.Name, w, m.Wait)
		}
	}
	return nil
}

// nodeConfig builds one simulated server. The des scenario hosts 40
// Zipf titles at 200 viewers/min with a hybrid threshold of 10/min:
// the four hottest titles run on the fluid engine and the other 36,
// with 62% of the arrivals, on the discrete-event engine, which takes
// nearly all the time. The fluid scenario hosts 80 titles at 10⁵/min,
// every one above the threshold.
func nodeConfig(seed int64, small, fluid bool) (sim.ServerConfig, error) {
	titles, lambda, threshold, horizon := 40, 200.0, 10.0, 700.0
	if fluid {
		titles, lambda, threshold, horizon = 80, 1e5, 100, 1000
	}
	if small {
		horizon = 300
	}
	cat, err := workload.ZipfCatalog(titles, 0.8)
	if err != nil {
		return sim.ServerConfig{}, err
	}
	rates, err := workload.SplitRate(lambda, cat)
	if err != nil {
		return sim.ServerConfig{}, err
	}
	movies := make([]sim.MovieSetup, len(cat))
	for i, m := range cat {
		if fluid && rates[i] < threshold {
			return sim.ServerConfig{}, fmt.Errorf("%s: rate %.1f/min below the fluid threshold", m.Name, rates[i])
		}
		movies[i] = sim.MovieSetup{
			Name: m.Name, L: m.Length, B: m.Length / 4, N: 20,
			ArrivalRate: rates[i], Profile: m.Profile,
		}
	}
	return sim.ServerConfig{
		Movies: movies, Rates: paperRates,
		Horizon: horizon, Warmup: 100, Seed: seed,
		Engine: sim.EngineHybrid, FluidThreshold: threshold,
	}, nil
}

// runNode simulates one multi-title server; the answer is the run.
func runNode(c *child, fluid bool) error {
	id := fmt.Sprintf("r%d.node", c.Rep)
	cfg, err := nodeConfig(c.Seed, c.Small, fluid)
	if err != nil {
		return err
	}
	var srv *sim.Server
	err = c.call(id, c.root, "sim.NewServer", func() (err error) {
		srv, err = sim.NewServer(cfg)
		return err
	})
	if err != nil {
		return err
	}
	var res *sim.ServerResult
	ms := c.op(id, c.root, "node.run", func(sp int) error {
		return c.call(id, sp, "sim.Server.Run", func() (err error) {
			res, err = srv.Run()
			return err
		})
	}, func() error { return checkServer(res) })
	c.answer(ms)
	if res == nil {
		return nil
	}
	var viewers uint64
	for _, m := range res.Movies {
		viewers += m.Arrivals
	}
	if fluid {
		c.detail("vmin_per_s", "vmin/s", res.AvgViewers*(cfg.Horizon-cfg.Warmup)/(ms/1e3))
	} else {
		c.detail("ns_per_viewer", "ns", ms*1e6/float64(viewers))
	}
	c.rep.Digest = digest([]byte(res.Summary()))
	return nil
}

// checkServer verifies that every hit probability is a probability.
func checkServer(res *sim.ServerResult) error {
	if p := res.PooledHit(); !(p >= 0 && p <= 1) {
		return fmt.Errorf("pooled P(hit) %v outside [0,1]", p)
	}
	for name, m := range res.Movies {
		if m.Hits.N() == 0 {
			continue
		}
		if p := m.HitProbability(); !(p >= 0 && p <= 1) {
			return fmt.Errorf("%s: P(hit) %v outside [0,1]", name, p)
		}
	}
	return nil
}

// churnCatalog is the control-plane workloads' catalog: 24 Zipf titles,
// each copy sized by hand (40 streams, 8 buffer-minutes) so the
// scenarios run without a sizing pass.
func churnCatalog() ([]workload.Movie, []cluster.MovieAlloc, error) {
	movies, err := workload.ZipfCatalog(24, 0.8)
	if err != nil {
		return nil, nil, err
	}
	allocs := make([]cluster.MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = cluster.MovieAlloc{Movie: m.Name, N: 40, B: 8, Hit: 0.7, Wait: 0.3, Weight: m.Popularity}
	}
	return movies, allocs, nil
}

// packChurn places every title twice on 8 uniform nodes.
func packChurn(allocs []cluster.MovieAlloc) (cluster.Placement, error) {
	return cluster.PackAllocs(allocs, cluster.UniformNodes(8, 300, 300), cluster.Options{Replicas: 2})
}

// churnConfig builds one control-plane scenario on placement p. The
// blind scenario drifts the popularity law, lands a 4× flash crowd on
// the hottest title and runs the rebalancing controller under blind
// routing (Router.RouteLoad). The hedge scenario replays the gray
// timeline of `vodbench -exp gray` — a 12× slow node and a brownout to
// 0.4 capacity — under hedged routing (Router.RouteGray) with the
// controller evacuating quarantined nodes.
func churnConfig(seed int64, small, hedge bool, movies []workload.Movie, p cluster.Placement) cluster.ChurnConfig {
	horizon := 3000.0
	if small {
		horizon = 600
	}
	at := func(frac float64) float64 { return frac * horizon }
	cfg := cluster.ChurnConfig{
		Placement: p,
		Workload: workload.DynamicWorkload{
			Movies:   movies,
			BaseRate: 12,
			Drift:    &workload.ZipfDrift{Theta0: 0.8, Theta1: 1.1, Period: horizon, Rotate: horizon / 10},
			Flashes:  []workload.FlashCrowd{{Movie: "m01", At: at(0.25), Peak: 4, Ramp: 10, Hold: 60, Decay: 30}},
		},
		Horizon: horizon, Warmup: 100, Seed: seed, Window: 60,
		Controller: cluster.ControllerConfig{Interval: 10, Cooldown: 15, BudgetBytes: 60e9},
	}
	if hedge {
		cfg.Workload.Drift, cfg.Workload.Flashes = nil, nil
		cfg.Policy = cluster.PolicyHedge
		cfg.Controller.EvacuateDwell = 10
		cfg.Gray = []cluster.GrayFault{
			{Kind: cluster.GraySlow, Node: "node0", At: at(0.3), Until: at(0.7), Factor: 12},
			{Kind: cluster.GrayBrownout, Node: "node2", At: at(0.4), Until: at(0.8), Factor: 0.4},
		}
	}
	return cfg
}

// runChurn runs one control-plane scenario; the answer is the run.
// Arrivals must partition into admissions and typed sheds, and the
// availabilities must be probabilities.
func runChurn(c *child, hedge bool) error {
	id := fmt.Sprintf("r%d.churn", c.Rep)
	movies, allocs, err := churnCatalog()
	if err != nil {
		return err
	}
	var p cluster.Placement
	err = c.call(id, c.root, "cluster.PackAllocs", func() (err error) {
		p, err = packChurn(allocs)
		return err
	})
	if err != nil {
		return err
	}
	cfg := churnConfig(c.Seed, c.Small, hedge, movies, p)
	var res *cluster.ChurnResult
	ms := c.op(id, c.root, "churn.run", func(sp int) error {
		return c.call(id, sp, "cluster.RunChurn", func() (err error) {
			res, err = cluster.RunChurn(context.Background(), cfg)
			return err
		})
	}, func() error { return checkChurn(res) })
	c.answer(ms)
	if res == nil {
		return nil
	}
	c.detail("arrivals_per_s", "1/s", float64(res.Arrivals)/(ms/1e3))
	if hedge {
		c.detail("hedges_per_arrival", "ratio", float64(res.Gray.Hedges)/float64(res.Arrivals))
	} else {
		c.detail("migrations", "count", float64(res.Controller.MigrationsStarted))
	}
	c.rep.Digest = digest([]byte(res.Summary()))
	return nil
}

func checkChurn(r *cluster.ChurnResult) error {
	if got := r.Admitted + r.ShedNoReplica + r.ShedSaturated + r.ShedDegraded; got != r.Arrivals {
		return fmt.Errorf("admitted+sheds = %d, arrivals = %d", got, r.Arrivals)
	}
	for _, a := range []float64{r.Availability, r.FloorAvailability} {
		if !(a >= 0 && a <= 1) {
			return fmt.Errorf("availability %v outside [0,1]", a)
		}
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"time"

	"vodalloc/internal/analytic"
	"vodalloc/internal/cluster"
	"vodalloc/internal/des"
	"vodalloc/internal/dist"
	"vodalloc/internal/httpapi"
	"vodalloc/internal/quad"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// The probes of a traced run time each layer through its public
// functions on small fixed inputs, one layer at a time, so a change to
// one layer shows in its own numbers. They run in a child of their own
// after the traced workload reps; the untraced runs never pay for them.

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

const (
	probeBatch  = 10 * time.Millisecond
	probeRounds = 5
)

// nsPerCall grows a batch of calls to fn until one batch takes at least
// probeBatch, then times probeRounds batches of that size and returns
// the median ns per call.
func nsPerCall(fn func(i int)) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if time.Since(t) >= probeBatch {
			break
		}
		n *= 2
	}
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

// layers collects probe results.
type layers map[string]measurement

func (l layers) set(name, unit string, v float64) { l[name] = measurement{Value: v, Unit: unit} }

// prober carries what one probe hands the next.
type prober struct {
	seed int64
	out  layers
	// eval holds the sizing probe's warm plan of probeCatalog; the
	// httpapi probe serves from it.
	eval *sizing.Evaluator
}

// runProbes runs every layer probe as one operation each.
func runProbes(c *child) error {
	p := &prober{seed: c.Seed, out: layers{}}
	probes := []struct {
		name string
		run  func() error
	}{
		{"quad", p.quadProbe},
		{"dist", p.distProbe},
		{"analytic", p.analyticProbe},
		{"sizing", p.sizingProbe},
		{"des", p.desProbe},
		{"sim", p.simProbe},
		{"fluid", p.fluidProbe},
		{"cluster", p.clusterProbe},
		{"httpapi", p.httpapiProbe},
	}
	for _, pr := range probes {
		id := fmt.Sprintf("r%d.probe.%s", c.Rep, pr.name)
		c.op(id, c.root, "probe."+pr.name, func(int) error { return pr.run() }, nil)
	}
	// The plan handler's cost beyond the sizing layer's warm plan of the
	// same catalog is the service's own overhead.
	p.out.set("httpapi.plan_overhead_us", "us", p.out["httpapi.plan_handler_us"].Value-p.out["sizing.warm_plan_us"].Value)
	c.rep.Layers = p.out
	return nil
}

var gamma24 = dist.MustGamma(2, 4)

// ffMass is the shape of the model's fast-forward hit integrand: the
// Gamma(2,4) duration mass a catch-up sweep covers at offset u.
func ffMass(u float64) float64 { return gamma24.CDF(1.5*(4+u)) - gamma24.CDF(1.5*(3+u)) }

func (p *prober) quadProbe() error {
	p.out.set("quad.gauss_panels_ns", "ns", nsPerCall(func(int) { sink += quad.GaussPanels(ffMass, 0, 1, 16) }))
	p.out.set("quad.auto_panels_ns", "ns", nsPerCall(func(int) { sink += quad.AutoPanels(ffMass, 0, 1, 1e-10, 32) }))
	return nil
}

func (p *prober) distProbe() error {
	p.out.set("dist.gamma_cdf_ns", "ns", nsPerCall(func(i int) { sink += gamma24.CDF(float64(i%400) / 10) }))
	rng := rand.New(rand.NewSource(p.seed))
	p.out.set("dist.sample_ns", "ns", nsPerCall(func(int) { sink += gamma24.Sample(rng) }))
	return nil
}

// analyticProbe evaluates the §4 mixed-workload P(hit) on a fresh model
// per call, at n=30 and at n=384.
func (p *prober) analyticProbe() error {
	mix := sizing.MixFromProfile(workload.MixedProfile(gamma24, dist.MustExponential(15)))
	var err error
	hitmix := func(b float64, n int) float64 {
		cfg := analytic.Config{L: 120, B: b, N: n, RatePB: 1, RateFF: 3, RateRW: 3}
		return nsPerCall(func(int) {
			m, e := analytic.New(cfg)
			if e == nil {
				var hit float64
				hit, e = m.HitMix(mix)
				sink += hit
			}
			err = errors.Join(err, e)
		}) / 1e6
	}
	p.out.set("analytic.hitmix_ms", "ms", hitmix(30, 30))
	p.out.set("analytic.hitmix_large_n_ms", "ms", hitmix(24, 384))
	return err
}

// probeCatalog is the sizing and httpapi probes' catalog: the two
// cheaper titles of Example 1.
func probeCatalog() []workload.Movie { return workload.Example1Movies()[1:] }

// probeSpecs is probeCatalog as the service's request form.
var probeSpecs = []workload.MovieSpec{
	{Name: "movie2", Length: 60, Wait: 0.5, TargetHit: 0.5, Dur: "exp:5"},
	{Name: "movie3", Length: 90, Wait: 0.25, TargetHit: 0.5, Dur: "exp:2"},
}

// sizingProbe plans probeCatalog cold on a fresh evaluator, replays it warm
// (the warm plan must equal the cold one), then sweeps each title's
// 5-minute buffer grid as fig8 does: the cache hit ratio is the share
// of that evaluator's lookups its memo served.
func (p *prober) sizingProbe() error {
	movies := probeCatalog()
	p.eval = &sizing.Evaluator{}
	cold, err := p.eval.MinBufferPlan(movies, sizing.DefaultRates, 0, 0)
	if err != nil {
		return err
	}
	p.out.set("sizing.evals_per_plan", "count", float64(p.eval.CacheStats().Misses))
	var warm sizing.Plan
	p.out.set("sizing.warm_plan_us", "us", nsPerCall(func(int) {
		warm, err = p.eval.MinBufferPlan(movies, sizing.DefaultRates, 0, 0)
	})/1e3)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(warm, cold) {
		return errors.New("warm plan differs from the cold plan")
	}
	before := p.eval.CacheStats()
	for _, m := range movies {
		if _, err := p.eval.FeasibleByBufferStep(m, sizing.DefaultRates, 5); err != nil {
			return err
		}
	}
	after := p.eval.CacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	p.out.set("sizing.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	return nil
}

// desProbe drives a bare kernel: 1024 pending events, each firing
// schedules one more, 2^20 events in all.
func (p *prober) desProbe() error {
	const depth, total = 1024, 1 << 20
	var k des.Kernel
	rng := rand.New(rand.NewSource(p.seed))
	var err error
	var fire func(float64)
	fire = func(float64) {
		if k.Fired()+uint64(k.Pending()) < total {
			_, e := k.Schedule(rng.ExpFloat64(), "probe", fire)
			err = errors.Join(err, e)
		}
	}
	for i := 0; i < depth; i++ {
		if _, e := k.Schedule(rng.ExpFloat64(), "probe", fire); e != nil {
			return e
		}
	}
	t := time.Now()
	k.Run()
	p.out.set("des.kernel_ns_per_event", "ns", float64(time.Since(t).Nanoseconds())/float64(k.Fired()))
	return err
}

// simProbe runs the §4 movie alone at λ=20/min on the DES engine, then
// the node_des server at its smoke-test size.
func (p *prober) simProbe() error {
	s, err := sim.New(sim.Config{
		L: 120, B: 30, N: 30, Rates: paperRates, ArrivalRate: 20,
		Profile: workload.MixedProfile(gamma24, dist.MustExponential(15)),
		Horizon: 600, Warmup: 100, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	res, err := s.Run()
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	if err := unitInterval("P(hit)", res.HitProbability()); err != nil {
		return err
	}
	events := float64(s.EventsFired())
	p.out.set("des.events", "count", events)
	p.out.set("des.events_per_s", "1/s", events/wall.Seconds())
	p.out.set("sim.ns_per_viewer_single", "ns", float64(wall.Nanoseconds())/float64(res.Arrivals))
	p.out.set("sim.allocs_per_event", "count", float64(after.Mallocs-before.Mallocs)/events)

	_, srv, wall, err := runSmallNode(p.seed, false)
	if err != nil {
		return err
	}
	var viewers uint64
	for _, m := range srv.Movies {
		viewers += m.Arrivals
	}
	p.out.set("sim.ns_per_viewer_server", "ns", float64(wall.Nanoseconds())/float64(viewers))
	return nil
}

// runSmallNode runs a node scenario at its smoke-test size.
func runSmallNode(seed int64, fluid bool) (sim.ServerConfig, *sim.ServerResult, time.Duration, error) {
	cfg, err := nodeConfig(seed, true, fluid)
	if err != nil {
		return cfg, nil, 0, err
	}
	s, err := sim.NewServer(cfg)
	if err != nil {
		return cfg, nil, 0, err
	}
	t := time.Now()
	res, err := s.Run()
	if err != nil {
		return cfg, nil, 0, err
	}
	return cfg, res, time.Since(t), checkServer(res)
}

// fluidProbe runs the node_fluid server at its smoke-test size, and
// one title alone on the fluid engine for its event count.
func (p *prober) fluidProbe() error {
	cfg, res, wall, err := runSmallNode(p.seed, true)
	if err != nil {
		return err
	}
	p.out.set("fluid.ms_per_title", "ms", float64(wall.Nanoseconds())/1e6/float64(len(cfg.Movies)))
	p.out.set("fluid.vmin_per_s", "vmin/s", res.AvgViewers*(cfg.Horizon-cfg.Warmup)/wall.Seconds())
	s, err := sim.New(sim.Config{
		L: 120, B: 30, N: 30, Rates: paperRates, ArrivalRate: 1e4,
		Profile: workload.MixedProfile(gamma24, dist.MustExponential(15)),
		Horizon: cfg.Horizon, Warmup: cfg.Warmup, Seed: p.seed, Engine: sim.EngineFluid,
	})
	if err != nil {
		return err
	}
	if _, err := s.Run(); err != nil {
		return err
	}
	p.out.set("fluid.events_per_title", "count", float64(s.EventsFired()))
	return nil
}

// clusterProbe times placement, both routing paths and the controller
// tick on the churn workloads' catalog, then runs both churn scenarios
// at their smoke-test size.
func (p *prober) clusterProbe() error {
	movies, allocs, err := churnCatalog()
	if err != nil {
		return err
	}
	var pl cluster.Placement
	p.out.set("cluster.pack_ms", "ms", nsPerCall(func(int) {
		var e error
		pl, e = packChurn(allocs)
		err = errors.Join(err, e)
	})/1e6)
	if err != nil {
		return err
	}
	names := make([]string, len(movies))
	for i, m := range movies {
		names[i] = m.Name
	}

	r, err := cluster.NewRouter(pl, p.seed)
	if err != nil {
		return err
	}
	p.out.set("cluster.route_load_ns", "ns", nsPerCall(func(i int) {
		m := names[i%len(names)]
		if d, e := r.RouteLoad(m); e == nil {
			r.Release(m, d.Node)
		}
	}))

	// Hedged routing with node0 serving 12× slow, so the health machine
	// and the hedge deadline are live.
	g, err := cluster.NewRouter(pl, p.seed)
	if err != nil {
		return err
	}
	if err := g.SetGrayPolicy(cluster.PolicyHedge, cluster.HealthConfig{}); err != nil {
		return err
	}
	slow := func(node, _, _ int) float64 {
		if node == 0 {
			return 12
		}
		return 1
	}
	now := 0.0
	p.out.set("cluster.route_gray_hedge_ns", "ns", nsPerCall(func(i int) {
		m := names[i%len(names)]
		now += 0.01
		if d, e := g.RouteGray(m, now, slow); e == nil {
			g.ReleaseDisk(m, d.Node, d.Disk)
		}
	}))

	if err := p.controllerProbe(movies, pl); err != nil {
		return err
	}

	for _, hedge := range []bool{false, true} {
		cfg := churnConfig(p.seed, true, hedge, movies, pl)
		t := time.Now()
		res, err := cluster.RunChurn(context.Background(), cfg)
		if err != nil {
			return err
		}
		if err := checkChurn(res); err != nil {
			return err
		}
		rate := float64(res.Arrivals) / time.Since(t).Seconds()
		if hedge {
			p.out.set("cluster.churn_hedge_arrivals_per_s", "1/s", rate)
			p.out.set("cluster.hedges_per_arrival", "ratio", float64(res.Gray.Hedges)/float64(res.Arrivals))
		} else {
			p.out.set("cluster.churn_blind_arrivals_per_s", "1/s", rate)
			p.out.set("cluster.migrations", "count", float64(res.Controller.MigrationsStarted))
		}
	}
	return nil
}

// controllerProbe feeds the controller 100 Zipf-distributed arrivals
// per tick and times 200 ticks, landing every migration a tick starts
// before the next one.
func (p *prober) controllerProbe(movies []workload.Movie, pl cluster.Placement) error {
	r, err := cluster.NewRouter(pl, p.seed)
	if err != nil {
		return err
	}
	const interval = 10
	ctrl, err := cluster.NewController(cluster.ControllerConfig{Interval: interval, Cooldown: 15, BudgetBytes: 60e9}, pl, movies, r)
	if err != nil {
		return err
	}
	cum := make([]float64, len(movies))
	total := 0.0
	for i, m := range movies {
		total += m.Popularity
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(p.seed))
	ticks := make([]float64, 200)
	for i := range ticks {
		for a := 0; a < 100; a++ {
			u := rng.Float64() * total
			j := 0
			for cum[j] < u {
				j++
			}
			ctrl.ObserveArrival(j)
		}
		t := time.Now()
		started := ctrl.Tick(float64(i+1) * interval)
		ticks[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		for _, m := range started {
			if err := ctrl.Complete(m); err != nil {
				return err
			}
		}
	}
	p.out.set("cluster.controller_tick_us", "us", median(ticks))
	return nil
}

// httpapiProbe times the service's handlers in process, with no network:
// /v1/hit and /v1/simulate on the §4 configuration, and /v1/plan of
// probeCatalog served from the sizing probe's warm evaluator.
func (p *prober) httpapiProbe() error {
	h := httpapi.New(httpapi.Options{Evaluator: p.eval})
	var err error
	call := func(path string, body []byte) func(int) {
		return func(int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				err = errors.Join(err, fmt.Errorf("%s: status %d: %.120s", path, rec.Code, rec.Body.String()))
			}
		}
	}
	cfg := httpapi.ConfigJSON{L: 120, B: 30, N: 30}
	p.out.set("httpapi.hit_handler_ms", "ms", nsPerCall(call("/v1/hit", mustJSON(httpapi.HitRequest{Config: cfg})))/1e6)
	simulate := mustJSON(httpapi.SimulateRequest{Config: cfg, Lambda: 0.5, Horizon: 800, Seed: p.seed})
	p.out.set("httpapi.sim_handler_ms", "ms", nsPerCall(call("/v1/simulate", simulate))/1e6)
	plan := call("/v1/plan", mustJSON(httpapi.PlanRequest{Movies: probeSpecs}))
	p.out.set("httpapi.plan_handler_us", "us", nsPerCall(plan)/1e3)
	return err
}

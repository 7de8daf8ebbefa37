package cluster

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/dist"
	"vodalloc/internal/sim"
	"vodalloc/internal/sizing"
	"vodalloc/internal/vcr"
	"vodalloc/internal/workload"
)

var testRates = vcr.Rates{PB: 1, FF: 3, RW: 3}

func twoMovieCatalog() []workload.Movie {
	think := dist.MustExponential(15)
	return []workload.Movie{
		{
			Name: "hot", Length: 60, Wait: 0.5, TargetHit: 0.5,
			Profile:    workload.MixedProfile(dist.MustExponential(5), think),
			Popularity: 7,
		},
		{
			Name: "cold", Length: 60, Wait: 0.5, TargetHit: 0.5,
			Profile:    workload.MixedProfile(dist.MustExponential(5), think),
			Popularity: 3,
		},
	}
}

func twoMoviePlacement(t *testing.T) Placement {
	t.Helper()
	allocs := []MovieAlloc{
		{Movie: "hot", N: 20, B: 10, Weight: 0.7},
		{Movie: "cold", N: 20, B: 10, Weight: 0.3},
	}
	p, err := PackAllocs(allocs, UniformNodes(2, 60, 40), Options{Replicas: 2, HotMovies: 1})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	return p
}

// TestClusterParitySingleNodePlacement pins the acceptance criterion:
// with the Example 1 catalog planned one movie per node, the cluster
// simulation reproduces each movie's standalone single-server hit
// probability within CI noise.
func TestClusterParitySingleNodePlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node DES parity run")
	}
	ctx := context.Background()
	movies := workload.Example1Movies()
	allocs, err := Demands(ctx, nil, movies, sizing.DefaultRates)
	if err != nil {
		t.Fatalf("Demands: %v", err)
	}
	nodes := AutoNodes(3, allocs, Options{}, 0)
	p, err := PackAllocs(allocs, nodes, Options{})
	if err != nil {
		t.Fatalf("PackAllocs: %v", err)
	}
	perNode := map[string]int{}
	for _, a := range p.Assignments {
		perNode[a.Node]++
	}
	for n, c := range perNode {
		if c != 1 {
			t.Fatalf("node %s hosts %d movies, want 1 per node: %+v", n, c, p.Assignments)
		}
	}

	const horizon, warmup = 2000.0, 200.0
	res, err := Simulate(ctx, SimConfig{
		Placement: p,
		Movies:    movies,
		Rates:     testRates,
		TotalRate: 1.5, // 0.5/min per movie — the §4 reference rate
		Horizon:   horizon,
		Warmup:    warmup,
		Seed:      11,
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Availability != 1 || res.Shed != 0 {
		t.Fatalf("fault-free run lost traffic: avail=%v shed=%d", res.Availability, res.Shed)
	}

	for i, m := range movies {
		srv, err := sim.NewServer(sim.ServerConfig{
			Movies: []sim.MovieSetup{{
				Name: m.Name, L: m.Length,
				B: allocs[i].B, N: allocs[i].N,
				ArrivalRate: 0.5, Profile: m.Profile,
			}},
			Rates:   testRates,
			Horizon: horizon,
			Warmup:  warmup,
			Seed:    int64(99 + i), // independent seed: statistical, not mechanical, parity
		})
		if err != nil {
			t.Fatalf("NewServer(%s): %v", m.Name, err)
		}
		sr, err := srv.RunCtx(ctx)
		if err != nil {
			t.Fatalf("standalone run %s: %v", m.Name, err)
		}
		want := sr.Movies[m.Name].HitProbability()
		var got float64
		for _, mo := range res.Movies {
			if mo.Movie == m.Name {
				got = mo.Hit
			}
		}
		if d := math.Abs(got - want); d > 0.06 {
			t.Errorf("movie %s: cluster hit %.4f vs standalone %.4f (|Δ|=%.4f > 0.06)",
				m.Name, got, want, d)
		}
	}
}

// TestClusterFailoverAndShed pins the second acceptance criterion: a
// node failed mid-run sheds the movies it exclusively hosts while
// replicated movies stay available through failover.
func TestClusterFailoverAndShed(t *testing.T) {
	p := twoMoviePlacement(t)
	coldHost := p.Replicas("cold")[0].Node
	res, err := Simulate(context.Background(), SimConfig{
		Placement: p,
		Movies:    twoMovieCatalog(),
		Rates:     testRates,
		TotalRate: 1.0,
		Horizon:   1200,
		Warmup:    150,
		Seed:      21,
		Faults:    []NodeFault{{Node: coldHost, At: 400}}, // permanent
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	var hot, cold MovieOutcome
	for _, m := range res.Movies {
		switch m.Movie {
		case "hot":
			hot = m
		case "cold":
			cold = m
		}
	}
	if hot.Availability <= 0 {
		t.Errorf("replicated movie availability %v, want > 0", hot.Availability)
	}
	if hot.Shed != 0 {
		t.Errorf("replicated movie shed %d requests despite a live replica", hot.Shed)
	}
	if hot.Failovers == 0 && p.Replicas("hot")[0].Node == coldHost {
		t.Errorf("primary host down but no failovers recorded")
	}
	if cold.Shed == 0 || cold.Availability >= 1 {
		t.Errorf("unreplicated movie on failed node: shed=%d avail=%v, want shedding", cold.Shed, cold.Availability)
	}
	if res.Rebalances == 0 {
		t.Errorf("no rebalances recorded with a node down")
	}
	for _, n := range res.Nodes {
		if n.Node == coldHost {
			if !n.Faulted || n.Availability >= 1 || n.DiskFailures == 0 {
				t.Errorf("failed node outcome %+v, want faulted with degraded availability", n)
			}
		}
	}
}

// TestClusterSimDeterminism checks worker-count independence: the
// merge is a pure function of per-node runs, which are independently
// seeded.
func TestClusterSimDeterminism(t *testing.T) {
	cfg := SimConfig{
		Placement: twoMoviePlacement(t),
		Movies:    twoMovieCatalog(),
		Rates:     testRates,
		TotalRate: 1.0,
		Horizon:   500,
		Warmup:    50,
		Seed:      9,
	}
	cfg.Workers = 1
	r1, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Simulate workers=1: %v", err)
	}
	cfg.Workers = 4
	r4, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Simulate workers=4: %v", err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("results differ across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
}

// TestClusterSimulateResumable checks the journal round trip: a second
// run over a completed journal restores every node row and produces an
// identical result.
func TestClusterSimulateResumable(t *testing.T) {
	cfg := SimConfig{
		Placement: twoMoviePlacement(t),
		Movies:    twoMovieCatalog(),
		Rates:     testRates,
		TotalRate: 1.0,
		Horizon:   500,
		Warmup:    50,
		Seed:      13,
	}
	path := filepath.Join(t.TempDir(), "cluster.wal")
	r1, info1, err := SimulateResumable(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if info1.Items != 0 {
		t.Fatalf("fresh journal restored %d rows", info1.Items)
	}
	r2, info2, err := SimulateResumable(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if info2.Items != len(cfg.Placement.Nodes) {
		t.Errorf("restored %d rows, want %d", info2.Items, len(cfg.Placement.Nodes))
	}
	if info2.TornBytes != 0 {
		t.Errorf("clean journal reported torn tail %d", info2.TornBytes)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("resumed result differs:\n%+v\nvs\n%+v", r1, r2)
	}
	// A changed configuration must refuse the stale journal.
	cfg.Seed = 14
	if _, _, err := SimulateResumable(context.Background(), cfg, path); err == nil {
		t.Fatalf("mismatched config accepted the old journal")
	}
}

// TestClusterResumeRefusesDriftedCatalog: a journal written for one
// catalog must refuse a rerun whose movies differ only in their VCR
// profiles (think time exp:15 → exp:60, placement unchanged) instead of
// restoring the old catalog's node rows.
func TestClusterResumeRefusesDriftedCatalog(t *testing.T) {
	cfg := SimConfig{
		Placement: twoMoviePlacement(t),
		Movies:    twoMovieCatalog(),
		Rates:     testRates,
		TotalRate: 1.0,
		Horizon:   500,
		Warmup:    50,
		Seed:      13,
	}
	path := filepath.Join(t.TempDir(), "cluster.wal")
	old, _, err := SimulateResumable(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Movies = twoMovieCatalog()
	for i := range drifted.Movies {
		drifted.Movies[i].Profile.Think = dist.MustExponential(60)
	}
	fresh, err := Simulate(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Hit == old.Hit {
		t.Fatalf("think time does not move P(hit) (%.4f); the drift proves nothing", fresh.Hit)
	}
	if _, info, err := SimulateResumable(context.Background(), drifted, path); !errors.Is(err, checkpoint.ErrIdentity) {
		t.Fatalf("drifted catalog: want checkpoint.ErrIdentity, got %v after restoring %d rows", err, info.Items)
	}
}

func TestSimConfigValidate(t *testing.T) {
	base := func() SimConfig {
		return SimConfig{
			Placement: twoMoviePlacement(t),
			Movies:    twoMovieCatalog(),
			Rates:     testRates,
			TotalRate: 1.0,
			Horizon:   500,
			Warmup:    50,
		}
	}
	cases := []struct {
		name string
		mut  func(*SimConfig)
	}{
		{"zero rate", func(c *SimConfig) { c.TotalRate = 0 }},
		{"bad horizon", func(c *SimConfig) { c.Horizon = 0 }},
		{"warmup past horizon", func(c *SimConfig) { c.Warmup = 500 }},
		{"unknown fault node", func(c *SimConfig) { c.Faults = []NodeFault{{Node: "ghost", At: 1}} }},
		{"movie not placed", func(c *SimConfig) {
			extra := twoMovieCatalog()[0]
			extra.Name = "stray"
			c.Movies = append(c.Movies, extra)
		}},
		{"placed movie missing", func(c *SimConfig) { c.Movies = c.Movies[:1] }},
	}
	for _, c := range cases {
		cfg := base()
		c.mut(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadCluster) {
			t.Errorf("%s: got %v, want ErrBadCluster", c.name, err)
		}
	}
}

// TestParseNodeFaults pins the node-outage spec: exponent notation in
// either endpoint parses as a number rather than splitting the range,
// and malformed specs are refused with ErrBadCluster.
func TestParseNodeFaults(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []NodeFault
	}{
		{"node0@400", []NodeFault{{Node: "node0", At: 400}}},
		{"node0@100-200", []NodeFault{{Node: "node0", At: 100, Until: 200}}},
		{"node0@1e-3", []NodeFault{{Node: "node0", At: 1e-3}}},
		{"node0@1e2-2e3", []NodeFault{{Node: "node0", At: 100, Until: 2000}}},
		{"node0@400, node2@500-1500", []NodeFault{{Node: "node0", At: 400}, {Node: "node2", At: 500, Until: 1500}}},
		{"", nil},
	} {
		got, err := ParseNodeFaults(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{
		"node0",         // no @
		"@400",          // empty node
		"node0@",        // no start
		"node0@abc",     // bad start
		"node0@100-",    // empty end
		"node0@100-xyz", // bad end
		"node0@1e-3-x",  // bad end after an exponent
		"node0@400,",    // empty trailing fault
	} {
		if got, err := ParseNodeFaults(spec); !errors.Is(err, ErrBadCluster) {
			t.Errorf("%q: got %+v, %v; want ErrBadCluster", spec, got, err)
		}
	}
}

// FuzzParseNodeFaults pins the node-outage spec parser: any input
// either fails with an ErrBadCluster or yields faults that re-render as
// node@at[-until] and re-parse to the same values (NaN equal to NaN),
// and validating a parsed fault never panics — a validated one has a
// finite, non-negative start and a finite end.
func FuzzParseNodeFaults(f *testing.F) {
	for _, spec := range []string{
		"node0@400", "node0@100-200", "node0@400, node2@500-1500", "",
		"node0@1e-3", "node0@1e-3-2e-3", "node0@1E2-2e+3",
		"node0@-5", "node0@5--3", "node0@-1e-3--2e-3",
		"node0@Inf", "node0@1-Inf", "node0@-inf", "node0@NaN", "node0@5-NaN",
		"node0", "@400", "node0@", "node0@abc", "node0@100-", "node0@1e-3-x",
		"node0@400,", " , ", "a b@1", "node0@0x1p-2", "node0@1e400",
	} {
		f.Add(spec)
	}
	render := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseNodeFaults(spec)
		if err != nil {
			if !errors.Is(err, ErrBadCluster) {
				t.Fatalf("parse error %v is not ErrBadCluster", err)
			}
			return
		}
		parts := make([]string, len(fs))
		for i, nf := range fs {
			parts[i] = nf.Node + "@" + render(nf.At)
			if nf.Until != 0 {
				parts[i] += "-" + render(nf.Until)
			}
			if err := nf.Validate(nil); !errors.Is(err, ErrBadCluster) {
				t.Fatalf("%+v validated against no nodes: %v", nf, err)
			}
			err := nf.Validate(map[string]bool{nf.Node: true})
			switch {
			case err != nil && !errors.Is(err, ErrBadCluster):
				t.Fatalf("validate error %v is not ErrBadCluster", err)
			case err == nil && (!(nf.At >= 0) || math.IsInf(nf.At, 0) || math.IsNaN(nf.Until) || math.IsInf(nf.Until, 0)):
				t.Fatalf("validated fault has a bad time: %+v", nf)
			}
		}
		back, err := ParseNodeFaults(strings.Join(parts, ","))
		if err != nil || len(back) != len(fs) {
			t.Fatalf("%q re-rendered as %q: %v, %v", spec, parts, back, err)
		}
		for i := range fs {
			if back[i].Node != fs[i].Node || !same(back[i].At, fs[i].At) || !same(back[i].Until, fs[i].Until) {
				t.Fatalf("%q: fault %d %+v re-parsed as %+v", spec, i, fs[i], back[i])
			}
		}
	})
}

// TestSimulateRoutingFlowsPinned pins Simulate's routing pass — every
// movie's arrivals, routed, shed and failovers, and the rebalance count —
// across outage shapes: none, a repaired and a permanent outage of the
// hottest movie's primary host, overlapping outages (one starting before
// warmup) that take down an unreplicated movie's only host, and a
// one-node cluster. Any change to the arrival streams, the router draws
// or the equal-time event order moves them.
func TestSimulateRoutingFlowsPinned(t *testing.T) {
	movies, err := workload.ZipfCatalog(4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := make([]MovieAlloc, len(movies))
	for i, m := range movies {
		allocs[i] = MovieAlloc{Movie: m.Name, N: 20, B: 10, Weight: m.Popularity}
	}
	three, err := PackAllocs(allocs, UniformNodes(3, 60, 40), Options{Replicas: 2, HotMovies: 2})
	if err != nil {
		t.Fatal(err)
	}
	one, err := PackAllocs(allocs, UniformNodes(1, 100, 60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hotPrimary := three.Replicas("m01")[0].Node
	coldHost := three.Replicas("m03")[0].Node
	other := three.Replicas("m04")[0].Node
	if len(three.Replicas("m03")) != 1 || other == coldHost {
		t.Fatalf("placement shape changed: %+v", three.Assignments)
	}

	type flow struct{ arrivals, routed, shed, failovers uint64 }
	cases := []struct {
		name       string
		p          Placement
		faults     []NodeFault
		want       []flow // catalog order
		rebalances uint64
	}{
		{"no faults", three, nil,
			[]flow{{670, 670, 0, 0}, {427, 427, 0, 0}, {302, 302, 0, 0}, {248, 248, 0, 0}}, 0},
		{"repaired hot primary", three, []NodeFault{{Node: hotPrimary, At: 200, Until: 420}},
			[]flow{{670, 670, 0, 266}, {427, 427, 0, 0}, {302, 302, 0, 0}, {248, 150, 98, 0}}, 266},
		{"permanent", three, []NodeFault{{Node: hotPrimary, At: 250}},
			[]flow{{670, 670, 0, 422}, {427, 427, 0, 0}, {302, 302, 0, 0}, {248, 97, 151, 0}}, 422},
		{"overlapping", three, []NodeFault{
			{Node: coldHost, At: 30, Until: 300},
			{Node: coldHost, At: 200, Until: 450},
			{Node: other, At: 250, Until: 350},
		}, []flow{{670, 670, 0, 123}, {427, 427, 0, 185}, {302, 179, 123, 0}, {248, 216, 32, 0}}, 308},
		{"one node", one, []NodeFault{{Node: "node0", At: 200, Until: 350}},
			[]flow{{670, 481, 189, 0}, {427, 316, 111, 0}, {302, 225, 77, 0}, {248, 188, 60, 0}}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Simulate(context.Background(), SimConfig{
				Placement: c.p,
				Movies:    movies,
				Rates:     testRates,
				TotalRate: 3,
				Horizon:   600,
				Warmup:    60,
				Seed:      5,
				Faults:    c.faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]flow, len(res.Movies))
			for i, m := range res.Movies {
				got[i] = flow{m.Arrivals, m.Routed, m.Shed, m.Failovers}
			}
			if !reflect.DeepEqual(got, c.want) || res.Rebalances != c.rebalances {
				t.Errorf("flows %+v rebalances %d, want %+v rebalances %d", got, res.Rebalances, c.want, c.rebalances)
			}
		})
	}
}

package cluster

import (
	"reflect"
	"slices"
	"testing"

	"vodalloc/internal/checkpoint"
	"vodalloc/internal/dist"
	"vodalloc/internal/faults"
	"vodalloc/internal/sim"
	"vodalloc/internal/vcr"
)

// The identity completeness property: every resumable configuration's
// checkpoint identity changes when any one of its fields does. The
// walker below reaches every settable leaf, so a field added to one of
// these configs is covered without editing the test.

var distributionType = reflect.TypeOf((*dist.Distribution)(nil)).Elem()

// distSwaps replace a distribution leaf. Distribution parameters are
// unexported and cannot be set by reflection, so each leaf is instead
// swapped for distributions of other families and parameters, and for
// nil.
var distSwaps = []dist.Distribution{
	nil,
	dist.MustExponential(15),
	dist.MustExponential(16),
	dist.MustDeterministic(15),
	dist.MustGamma(2, 4),
	dist.MustTruncated(dist.MustExponential(5), 0, 30),
	dist.MustTruncated(dist.MustExponential(5), 0, 31),
}

// perturbLeaves visits every settable leaf of v — through structs,
// non-nil pointers and the first element of non-empty slices — changes
// it, calls check with the leaf's path, and restores it. A nil pointer
// is set to a new zero value and an empty slice grows one zero element;
// a distribution is swapped for each of distSwaps. Fields named in skip
// are not visited.
func perturbLeaves(t *testing.T, v reflect.Value, path string, skip []string, check func(path string)) {
	t.Helper()
	if slices.Contains(skip, path) {
		return
	}
	saved := reflect.New(v.Type()).Elem()
	saved.Set(v)
	defer v.Set(saved)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported and cannot be perturbed", path, f.Name)
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, skip, check)
		}
		return
	case reflect.Pointer:
		if !v.IsNil() {
			perturbLeaves(t, v.Elem(), path, skip, check)
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		if v.Len() > 0 {
			perturbLeaves(t, v.Index(0), path+"[0]", skip, check)
			return
		}
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Interface:
		if v.Type() != distributionType {
			t.Fatalf("%s: an interface of type %s has no perturbation", path, v.Type())
		}
		for _, d := range distSwaps {
			if reflect.DeepEqual(d, saved.Interface()) {
				continue
			}
			if d == nil {
				v.Set(reflect.Zero(v.Type()))
			} else {
				v.Set(reflect.ValueOf(d))
			}
			check(path)
		}
		return
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no perturbation for a %s", path, v.Kind())
	}
	check(path)
}

// assertIdentityComplete perturbs every leaf of *cfg in turn and
// requires identity to change, except on the paths listed in inert,
// where it must stay put.
func assertIdentityComplete(t *testing.T, cfg any, identity func() uint64, skip, inert []string) {
	t.Helper()
	base := identity()
	v := reflect.ValueOf(cfg).Elem()
	leaves := 0
	perturbLeaves(t, v, v.Type().Name(), skip, func(path string) {
		leaves++
		if changed, want := identity() != base, !slices.Contains(inert, path); changed != want {
			t.Errorf("perturbing %s: identity changed = %t, want %t", path, changed, want)
		}
	})
	if identity() != base {
		t.Fatal("the walk did not restore the config")
	}
	t.Logf("%d leaf perturbations", leaves)
}

func TestIdentityCompleteSimConfig(t *testing.T) {
	cfg := sim.Config{
		L: 120, B: 60, N: 30, Delta: 0.5,
		Rates:       vcr.Rates{PB: 1, FF: 3, RW: 3},
		ArrivalRate: 0.5,
		Profile:     twoMovieCatalog()[0].Profile,
		Horizon:     3000, Warmup: 300, Seed: 7,
		Piggyback: true, Slew: 0.05,
		MaxDedicated: 40, TotalStreams: 60,
		Faults: faults.Schedule{
			{At: 400, Kind: faults.DiskFail, Disk: 1},
			{At: 800, Kind: faults.DiskRepair, Disk: 1},
		},
		Engine: sim.EngineHybrid, FluidThreshold: 5, ParticleRate: 2,
	}
	// Tracer is refused before any identity is computed (replications
	// and vodsim -resume both reject it).
	skip := []string{"Config.Tracer"}
	assertIdentityComplete(t, &cfg, func() uint64 { return checkpoint.Identity("vodsim.run", cfg) }, skip, nil)
}

func TestIdentityCompleteClusterSimConfig(t *testing.T) {
	cfg := SimConfig{
		Placement:      twoMoviePlacement(t),
		Movies:         twoMovieCatalog(),
		Rates:          testRates,
		TotalRate:      1.0,
		Horizon:        500,
		Warmup:         50,
		Seed:           13,
		Workers:        2,
		Faults:         []NodeFault{{Node: "node1", At: 200, Until: 300}},
		Engine:         sim.EngineHybrid,
		FluidThreshold: 5,
		ParticleRate:   2,
	}
	// Results are identical at any worker count, so Workers alone must
	// leave the journal's identity unchanged.
	inert := []string{"SimConfig.Workers"}
	assertIdentityComplete(t, &cfg, func() uint64 { return checkpoint.Identity(cfg.identity()...) }, nil, inert)
}

func TestIdentityCompleteChurnConfig(t *testing.T) {
	for name, build := range map[string]func(*testing.T) ChurnConfig{
		"gray":        func(t *testing.T) ChurnConfig { return grayScenario(t, PolicyHedge) },
		"disk-health": diskHedgeScenario,
		"drift":       blindDriftScenario,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := build(t)
			assertIdentityComplete(t, &cfg, func() uint64 { return cfg.Identity() }, nil, nil)
		})
	}
}

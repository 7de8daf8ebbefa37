package workload

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vodalloc/internal/dist"
)

func TestMovieValidate(t *testing.T) {
	good := Example1Movies()[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("valid movie rejected: %v", err)
	}
	bad := []Movie{
		{Name: "l0", Length: 0, Wait: 1},
		{Name: "w0", Length: 100, Wait: 0},
		{Name: "wBig", Length: 100, Wait: 200},
		{Name: "p", Length: 100, Wait: 1, TargetHit: 1.5},
		{Name: "pop", Length: 100, Wait: 1, TargetHit: 0.5, Popularity: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s: want ErrBadParam, got %v", m.Name, err)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w, err := ZipfWeights(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Error("weights must decay with rank")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum %g", sum)
	}
	// theta = 0 is uniform.
	u, _ := ZipfWeights(5, 0)
	for _, v := range u {
		if math.Abs(v-0.2) > 1e-12 {
			t.Errorf("uniform weight %g want 0.2", v)
		}
	}
	// Known ratio: w1/w2 = 2^theta.
	w2, _ := ZipfWeights(2, 2)
	if math.Abs(w2[0]/w2[1]-4) > 1e-9 {
		t.Errorf("zipf ratio %g want 4", w2[0]/w2[1])
	}
	if _, err := ZipfWeights(0, 1); !errors.Is(err, ErrBadParam) {
		t.Error("n=0 must fail")
	}
	if _, err := ZipfWeights(3, -1); !errors.Is(err, ErrBadParam) {
		t.Error("negative theta must fail")
	}
}

func TestSplitRate(t *testing.T) {
	movies := []Movie{
		{Name: "a", Popularity: 3},
		{Name: "b", Popularity: 1},
	}
	rates, err := SplitRate(2, movies)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-1.5) > 1e-12 || math.Abs(rates[1]-0.5) > 1e-12 {
		t.Errorf("rates %v want [1.5, 0.5]", rates)
	}
	if _, err := SplitRate(0, movies); !errors.Is(err, ErrBadParam) {
		t.Error("zero total must fail")
	}
	if _, err := SplitRate(1, []Movie{{Popularity: 0}}); !errors.Is(err, ErrBadParam) {
		t.Error("zero popularity mass must fail")
	}
}

func TestExample1Movies(t *testing.T) {
	movies := Example1Movies()
	if len(movies) != 3 {
		t.Fatalf("want 3 movies, got %d", len(movies))
	}
	wantLen := []float64{75, 60, 90}
	wantWait := []float64{0.1, 0.5, 0.25}
	for i, m := range movies {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if m.Length != wantLen[i] || m.Wait != wantWait[i] || m.TargetHit != 0.5 {
			t.Errorf("%s: got (l=%g, w=%g, P*=%g)", m.Name, m.Length, m.Wait, m.TargetHit)
		}
		if err := m.Profile.Validate(); err != nil {
			t.Errorf("%s profile: %v", m.Name, err)
		}
	}
	// Movie 1's durations have mean 8 (Gamma(2,4)); movies 2 and 3 are
	// exponential with means 5 and 2.
	if math.Abs(movies[0].Profile.DurFF.Mean()-8) > 1e-12 {
		t.Error("movie1 duration mean should be 8")
	}
	if math.Abs(movies[1].Profile.DurFF.Mean()-5) > 1e-12 {
		t.Error("movie2 duration mean should be 5")
	}
	if math.Abs(movies[2].Profile.DurFF.Mean()-2) > 1e-12 {
		t.Error("movie3 duration mean should be 2")
	}
}

func TestMixedProfileProbabilities(t *testing.T) {
	p := MixedProfile(dist.MustGamma(2, 4), dist.MustExponential(15))
	if p.PFF != 0.2 || p.PRW != 0.2 || p.PPAU != 0.6 {
		t.Errorf("mix %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	const doc = `{
	  "movies": [
	    {"name": "movie1", "length": 75, "wait": 0.1, "targetHit": 0.5,
	     "dur": "gamma:2:4"},
	    {"name": "movie2", "length": 60, "wait": 0.5, "targetHit": 0.5,
	     "dur": "exp:5", "pff": 1, "think": "exp:10", "popularity": 3}
	  ]
	}`
	movies, err := ReadCatalog(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(movies) != 2 {
		t.Fatalf("want 2 movies, got %d", len(movies))
	}
	m1 := movies[0]
	if m1.Profile.PFF != 0.2 || m1.Profile.PPAU != 0.6 {
		t.Errorf("default mix not applied: %+v", m1.Profile)
	}
	if m1.Popularity != 1 {
		t.Errorf("default popularity %g", m1.Popularity)
	}
	if math.Abs(m1.Profile.DurFF.Mean()-8) > 1e-9 {
		t.Error("movie1 duration mean")
	}
	m2 := movies[1]
	if m2.Profile.PFF != 1 || m2.Profile.PRW != 0 {
		t.Errorf("explicit mix lost: %+v", m2.Profile)
	}
	if math.Abs(m2.Profile.Think.Mean()-10) > 1e-9 {
		t.Error("think override lost")
	}
	if m2.Popularity != 3 {
		t.Error("popularity lost")
	}
}

func TestCatalogErrors(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"movies": []}`,
		`{"movies": [{"name":"x","length":0,"wait":1,"targetHit":0.5,"dur":"exp:5"}]}`,
		`{"movies": [{"name":"x","length":60,"wait":1,"targetHit":0.5,"dur":"bogus:5"}]}`,
		`{"movies": [{"name":"x","length":60,"wait":1,"targetHit":0.5,"dur":"exp:5","pff":0.9}]}`,
		`{"movies": [{"name":"x","unknown":1}]}`,
	}
	for i, doc := range cases {
		if _, err := ReadCatalog(strings.NewReader(doc)); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: want ErrBadParam, got %v", i, err)
		}
	}
}

func TestLoadCatalogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.json")
	doc := `{"movies":[{"name":"m","length":90,"wait":0.25,"targetHit":0.4,"dur":"exp:2"}]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	movies, err := LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(movies) != 1 || movies[0].Name != "m" {
		t.Errorf("loaded %+v", movies)
	}
	if _, err := LoadCatalog(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, ErrBadParam) {
		t.Error("missing file must fail")
	}
}

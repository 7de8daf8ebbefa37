package httpapi

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestResponsesPinned posts, to every POST endpoint, bodies that
// between them set every request field, and pins the sha256 of each
// response body, so a change to how requests become engine configs
// cannot move a response byte unnoticed.
func TestResponsesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const (
		config  = `"config": {"l": 120, "b": 60, "n": 30, "ratePB": 1, "rateFF": 4, "rateRW": 3.5}`
		profile = `"profile": {"pff": 0.3, "prw": 0.2, "ppau": 0.5, "dur": "gamma:2:3",
			"durFF": "exp:4", "durRW": "gamma:3:2", "durPAU": "exp:6", "think": "exp:12"}`
		movies = `"movies": [
			{"name": "m01", "length": 100, "wait": 1, "targetHit": 0.5, "popularity": 3,
			 "pff": 0.3, "prw": 0.2, "ppau": 0.5, "dur": "exp:5", "durFF": "gamma:2:3",
			 "durRW": "exp:4", "durPAU": "exp:6", "think": "exp:12"},
			{"name": "m02", "length": 120, "wait": 2, "targetHit": 0.6, "popularity": 2, "dur": "gamma:2:4"},
			{"name": "m03", "length": 90, "wait": 1.5, "targetHit": 0.4, "dur": "exp:3", "think": "exp:20"}]`
		shape = `"zipfMovies": 3, "zipfTheta": 0.9, "nodes": 2, "nodeStreams": 400, "nodeBuffer": 300,
			"headroom": 1.5, "replicas": 2, "hotMovies": 1`
		auto = `"zipfMovies": 5, "zipfTheta": 0.7, "nodes": 3, "headroom": 1.6, "replicas": 2, "hotMovies": 2`
		run  = `"lambda": 2, "horizon": 600, "warmup": 50, "seed": 4`
		sim  = config + `, ` + profile + `, "lambda": 0.5, "horizon": 800, "warmup": 80, "seed": 3,
			"piggyback": true, "slew": 0.08, "totalStreams": 60, "engine": "hybrid",
			"fluidThreshold": 5, "particleRate": 10`
	)
	h := New(Options{})
	for _, c := range []struct {
		name, path, body, want string
	}{
		{"hit", "/v1/hit", `{` + config + `, ` + profile + `, "breakdown": true}`,
			"59e7653b9af289c21b9c393225f1d10d6391ea253e8251255a3205d7ff0d3cfa"},
		{"hit defaults", "/v1/hit", `{"config": {"l": 120, "b": 60, "n": 30}, "profile": {"dur": "exp:5"}}`,
			"6a37c62fb4ddbfa461eb2f1421cac3e7393b0dc96037111a2644ef2124a9db52"},
		{"plan", "/v1/plan", `{` + movies + `, "maxStreams": 400, "maxBuffer": 300}`,
			"1fe1410dd8be489ac577f2b20a139d9d7a301e085b80956e78ac6f1109b414bc"},
		{"curve", "/v1/curve", `{` + movies + `, "phi": 11, "maxPoints": 20}`,
			"18b1761d7ac4d7875fb3b52e3c209fcaeee747b4a17ee9200c305a18f3e044a5"},
		{"reserve", "/v1/reserve", `{` + config + `, ` + profile + `, "lambda": 0.5, "z": 2.5}`,
			"5a0d3e6b5f1e248448f2d0cce14f0b0f23cc3d2ba535a7da8908d247564ae4eb"},
		{"simulate", "/v1/simulate", `{` + sim + `, "faults": "fail@300:d0,repair@500:d0"}`,
			"a5081bc9343f7c57d2f1cb89f3687caf1281c96c3075bdd4031a8716b40bf1ce"},
		{"simulate random faults", "/v1/simulate", `{` + sim + `, "faults": "rand:7:400:100:6"}`,
			"d29d428cc532153ccb29b706a5120cfbe0c066d4ec4c28b89d6ac11330df6953"},
		{"simulate defaults", "/v1/simulate", `{"config": {"l": 120, "b": 60, "n": 30}, "lambda": 0.5, "seed": 2}`,
			"172a1f148500dcfef821e0c32a301c85818288443fd444c56e38e150ed531142"},
		{"simulate fluid", "/v1/simulate", `{"config": {"l": 120, "b": 30, "n": 30}, "lambda": 200,
			"horizon": 400, "warmup": 40, "engine": "fluid", "particleRate": 5}`,
			"7d2f724ea835745233b905974a5a137c79243e7781a007c5359b8fe7ec27c115"},
		{"replicate", "/v1/replicate", `{` + sim + `, "faults": "rand:7:400:100:6", "replications": 3}`,
			"54f76e21d062e862fb244a955fcada51a127af4a277cf7314b5b4ff40217efc8"},
		{"cluster plan", "/v1/cluster/plan", `{` + movies + `, ` + shape + `}`,
			"98f023054b7e02ea62301e703fc60e4b964a843ae688a0c568e2153b54377b0b"},
		{"cluster plan auto", "/v1/cluster/plan", `{` + auto + `}`,
			"6ce037f8544d6de08cb931e3516255f8577c848df6aac4776aa6c03a0f108aab"},
		{"cluster simulate", "/v1/cluster/simulate", `{` + movies + `, ` + shape + `, ` + run + `,
			"fail": "node1@200-400", "engine": "hybrid", "fluidThreshold": 0.5}`,
			"e96d690c9226c0dec087a987177ae24e3fa9e35deace89db0fa1f052625efc9d"},
		{"cluster simulate auto", "/v1/cluster/simulate", `{` + auto + `, "lambda": 1.5, "fail": "node2@300"}`,
			"969e8a515dedb304f77637bc29e5ba353342348174ff239a87f5e17a31868523"},
		{"cluster churn", "/v1/cluster/churn", `{` + movies + `, ` + shape + `, ` + run + `,
			"fail": "node1@400-450", "flash": "m02@200:4:10:60:30", "diurnalPeriod": 300,
			"diurnalAmp": 0.2, "budgetMB": 30000, "interval": 12, "frozen": true, "window": 45,
			"gray": "slow:node0:d1@100-300:10,brownout:node1@150-350:0.5", "policy": "hedge",
			"starveWait": 6, "evacuateDwell": 20, "hedgeBudget": 8, "diskHealth": true, "nodeDisks": 3}`,
			"8635dabb63538932acad1780e3f6f3d86d7783f780455e37db6905b2804bd72d"},
		{"cluster churn evacuate", "/v1/cluster/churn", `{"zipfMovies": 6, "nodes": 4, "nodeStreams": 400,
			"nodeBuffer": 200, "replicas": 2, "lambda": 6, "horizon": 1200, "warmup": 100, "seed": 7,
			"gray": "slow:node0@200-900:12", "policy": "hedge", "evacuateDwell": 10, "hedgeBudget": 4,
			"interval": 10, "budgetMB": 200000, "diurnalPeriod": 400}`,
			"6b1914f2a2a13f9da40eb9ec0a368f4aefd13a89d2e8d5d9247b9b7afb7d5ab8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			sum := sha256.Sum256(rec.Body.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("response sha256 %s, want %s", got, c.want)
			}
		})
	}
}

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
	h := NewMux()
	for _, c := range []struct {
		name, path, body, want string
	}{
		{"hit", "/v1/hit", `{` + config + `, ` + profile + `, "breakdown": true}`,
			"71870fbecd7131563b464bc399740091aa2cabeb76f1df18523db5ccdac3b96e"},
		{"hit defaults", "/v1/hit", `{"config": {"l": 120, "b": 60, "n": 30}, "profile": {"dur": "exp:5"}}`,
			"5f12141e09811de1cc68ebd90f43ae4f936ed051889f60873029ddde27609641"},
		{"plan", "/v1/plan", `{` + movies + `, "maxStreams": 400, "maxBuffer": 300}`,
			"684a27308f1bbb7ac91ef4880121948b8922a5449a90d53f7e3387c11add124b"},
		{"curve", "/v1/curve", `{` + movies + `, "phi": 11, "maxPoints": 20}`,
			"18b1761d7ac4d7875fb3b52e3c209fcaeee747b4a17ee9200c305a18f3e044a5"},
		{"reserve", "/v1/reserve", `{` + config + `, ` + profile + `, "lambda": 0.5, "z": 2.5}`,
			"a2cd341294ff9de4f278e2b3d63c638d072b62328bb80e16e84a7c3a6e331d50"},
		{"simulate", "/v1/simulate", `{` + sim + `, "faults": "fail@300:d0,repair@500:d0"}`,
			"f57ad9fa1c2327f2656c3184756119742abedc0554d4f658fa4082a2981d4210"},
		{"simulate random faults", "/v1/simulate", `{` + sim + `, "faults": "rand:7:400:100:6"}`,
			"29ab7c1553ef23eafddecea9f17b0e41af5b939f4f46952664c17aeb04f6c9cb"},
		{"simulate defaults", "/v1/simulate", `{"config": {"l": 120, "b": 60, "n": 30}, "lambda": 0.5, "seed": 2}`,
			"5234da2f704cffb48a583b197a998aa8e3788de631acf1b2d33843e39b14062e"},
		{"simulate fluid", "/v1/simulate", `{"config": {"l": 120, "b": 30, "n": 30}, "lambda": 200,
			"horizon": 400, "warmup": 40, "engine": "fluid", "particleRate": 5}`,
			"ac16d2c16eb1de711c1de8058b680b72d5aacba417433b6901d38717d95a8ec8"},
		{"replicate", "/v1/replicate", `{` + sim + `, "faults": "rand:7:400:100:6", "replications": 3}`,
			"1fa4e964e88950e0c808bd4f07a32cc681c86d736248045146072a7a3e141c03"},
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
			"5e02f5356f0f4aadff6eb6b0bde182db262704d3e004482efdce93f2918d4339"},
		{"cluster churn evacuate", "/v1/cluster/churn", `{"zipfMovies": 6, "nodes": 4, "nodeStreams": 400,
			"nodeBuffer": 200, "replicas": 2, "lambda": 6, "horizon": 1200, "warmup": 100, "seed": 7,
			"gray": "slow:node0@200-900:12", "policy": "hedge", "evacuateDwell": 10, "hedgeBudget": 4,
			"interval": 10, "budgetMB": 200000, "diurnalPeriod": 400}`,
			"4d4c3f7a3fc4f5f58b1131e86fe50e4ebecd05f840b905d27eb4b1f908e948ea"},
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

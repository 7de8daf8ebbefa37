package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Options{}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	// Wrong method.
	r2, body := postJSON(t, srv, "/v1/healthz", "{}")
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST healthz: %d %s", r2.StatusCode, body)
	}
}

func TestHitEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/hit", `{
		"config": {"l": 120, "b": 60, "n": 30},
		"profile": {"dur": "gamma:2:4"},
		"breakdown": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out HitResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Cross-checked against the model's known values for this config.
	if math.Abs(out.HitFF-0.5137) > 0.001 || math.Abs(out.HitPAU-0.4903) > 0.001 {
		t.Errorf("hit values %+v", out)
	}
	if math.Abs(out.Hit-(0.2*out.HitFF+0.2*out.HitRW+0.6*out.HitPAU)) > 1e-9 {
		t.Error("mix inconsistent")
	}
	if out.Wait != 2 {
		t.Errorf("wait %g want 2", out.Wait)
	}
	if len(out.Breakdowns) != 3 {
		t.Errorf("breakdowns %v", out.Breakdowns)
	}
	if bd := out.Breakdowns["FF"]; math.Abs(bd.Total-out.HitFF) > 1e-6 {
		t.Error("FF breakdown total mismatch")
	}
}

func TestHitEndpointValidation(t *testing.T) {
	srv := newServer(t)
	cases := []string{
		`{"config": {"l": 0, "b": 60, "n": 30}}`,
		`{"config": {"l": 120, "b": 200, "n": 30}}`,
		`{"config": {"l": 120, "b": 60, "n": 30}, "profile": {"dur": "bogus:1"}}`,
		`{"config": {"l": 120, "b": 60, "n": 30}, "unknown": 1}`,
		`not json`,
	}
	for i, body := range cases {
		resp, out := postJSON(t, srv, "/v1/hit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s)", i, resp.StatusCode, out)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("case %d: error body %q", i, out)
		}
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/hit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/hit: %d", resp.StatusCode)
	}
}

func TestPlanEndpointExample1(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/plan", `{
		"movies": [
			{"name": "movie1", "length": 75, "wait": 0.1, "targetHit": 0.5, "dur": "gamma:2:4"},
			{"name": "movie2", "length": 60, "wait": 0.5, "targetHit": 0.5, "dur": "exp:5"},
			{"name": "movie3", "length": 90, "wait": 0.25, "targetHit": 0.5, "dur": "exp:2"}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out PlanResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.PureBatching != 1230 {
		t.Errorf("pure batching %d want 1230", out.PureBatching)
	}
	if len(out.Allocs) != 3 || out.TotalStreams >= 1230 {
		t.Errorf("plan %+v", out)
	}
	// Movie 2 matches the paper exactly.
	for _, a := range out.Allocs {
		if a.Movie == "movie2" && (a.N != 60 || math.Abs(a.B-30) > 1e-9) {
			t.Errorf("movie2 allocation %+v want (30, 60)", a)
		}
	}
	// Infeasible request surfaces as 400.
	resp, body = postJSON(t, srv, "/v1/plan", `{
		"movies": [{"name": "m", "length": 60, "wait": 30, "targetHit": 0.99, "dur": "exp:500", "ppau": 1}]
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("infeasible plan: %d %s", resp.StatusCode, body)
	}
	// Empty catalog.
	resp, _ = postJSON(t, srv, "/v1/plan", `{"movies": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("empty catalog should 400")
	}
}

func TestCurveEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/curve", `{
		"movies": [{"name": "m", "length": 60, "wait": 0.5, "targetHit": 0.5, "dur": "exp:5"}],
		"phi": 11, "maxPoints": 20
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CurveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) < 2 || out.Min.RelativeCost <= 0 {
		t.Errorf("curve %+v", out)
	}
	// phi=0 rejected.
	resp, _ = postJSON(t, srv, "/v1/curve", `{
		"movies": [{"name": "m", "length": 60, "wait": 0.5, "targetHit": 0.5, "dur": "exp:5"}],
		"phi": 0
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("phi=0 should 400")
	}
}

func TestReserveEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/reserve", `{
		"config": {"l": 120, "b": 60, "n": 30},
		"profile": {"dur": "gamma:2:4", "think": "exp:15"},
		"lambda": 0.5
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ReserveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.OpsPerMinute-4) > 1e-9 {
		t.Errorf("ops %g want 4", out.OpsPerMinute)
	}
	if out.Reserve <= int(out.Total) {
		t.Errorf("reserve %d should exceed mean %.1f", out.Reserve, out.Total)
	}
	resp, _ = postJSON(t, srv, "/v1/reserve", `{"config": {"l":120,"b":60,"n":30}, "lambda": 0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("lambda=0 should 400")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/simulate", `{
		"config": {"l": 120, "b": 60, "n": 30},
		"profile": {"dur": "gamma:2:4"},
		"lambda": 0.5,
		"horizon": 2000,
		"seed": 7
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Resumes == 0 || out.Hit <= 0 || out.Hit >= 1 {
		t.Errorf("sim result %+v", out)
	}
	if out.HitCI[0] > out.Hit || out.HitCI[1] < out.Hit {
		t.Error("CI does not bracket the estimate")
	}
	if out.ModelAgreement > 0.05 {
		t.Errorf("model disagreement %.4f", out.ModelAgreement)
	}
	if out.MaxWait > 2.0001 {
		t.Errorf("max wait %g exceeds w=2", out.MaxWait)
	}
	// Horizon cap.
	resp, _ = postJSON(t, srv, "/v1/simulate", `{
		"config": {"l": 120, "b": 60, "n": 30}, "lambda": 0.5, "horizon": 1000000
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("over-cap horizon should 400")
	}
	// The disk-level gray syntax is retired: gray faults are a cluster
	// feature (/v1/cluster/churn's "gray").
	resp, body = postJSON(t, srv, "/v1/simulate", `{
		"config": {"l": 120, "b": 60, "n": 30}, "lambda": 0.5, "horizon": 1000,
		"faults": "slow@300-700:d0:12"
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retired gray fault spec answered %d, want 400: %s", resp.StatusCode, body)
	}
}

func TestDeterministicSimulateAcrossCalls(t *testing.T) {
	srv := newServer(t)
	body := `{"config": {"l":120,"b":60,"n":30}, "lambda": 0.5, "horizon": 1000, "seed": 3}`
	_, a := postJSON(t, srv, "/v1/simulate", body)
	_, b := postJSON(t, srv, "/v1/simulate", body)
	if !bytes.Equal(a, b) {
		t.Error("same-seed simulate responses differ")
	}
}

// FuzzHitEndpoint throws arbitrary JSON at the /v1/hit handler: it must
// never panic or return 5xx — only 200 for valid requests and 400 for
// invalid ones.
func FuzzHitEndpoint(f *testing.F) {
	seeds := []string{
		`{"config":{"l":120,"b":60,"n":30},"profile":{"dur":"gamma:2:4"}}`,
		`{"config":{"l":-1}}`,
		`{}`,
		`{"config":{"l":1e308,"b":1e308,"n":2147483647}}`,
		`{"config":{"l":120,"b":60,"n":30},"profile":{"dur":"pareto:0:0"}}`,
		`null`,
		`[1,2,3]`,
		`{"config":{"l":0.0001,"b":0.00009,"n":1}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	mux := New(Options{})
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/hit", strings.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if rec.Code == http.StatusOK {
			var out HitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("undecodable 200 body: %v", err)
			}
			for name, p := range map[string]float64{"ff": out.HitFF, "rw": out.HitRW, "pau": out.HitPAU} {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("%s=%v outside [0,1] for %q", name, p, body)
				}
			}
		}
	})
}

func TestReplicateEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv, "/v1/replicate", `{
		"config": {"l": 120, "b": 60, "n": 30},
		"profile": {"dur": "gamma:2:4"},
		"lambda": 0.5,
		"horizon": 800,
		"replications": 4,
		"seed": 5
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ReplicateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.PerRun) != 4 || out.PooledTrials == 0 {
		t.Errorf("replicate result %+v", out)
	}
	if out.CI95 <= 0 || math.IsInf(out.CI95, 1) {
		t.Errorf("ci %g", out.CI95)
	}
	if math.Abs(out.PooledHit-out.ModelHit) > 0.05 {
		t.Errorf("pooled %g far from model %g", out.PooledHit, out.ModelHit)
	}
	// Bounds enforced.
	for _, bad := range []string{
		`{"config":{"l":120,"b":60,"n":30},"lambda":0.5,"replications":1}`,
		`{"config":{"l":120,"b":60,"n":30},"lambda":0.5,"replications":200}`,
		`{"config":{"l":120,"b":60,"n":30},"lambda":0.5,"replications":10,"horizon":40000}`,
	} {
		resp, _ := postJSON(t, srv, "/v1/replicate", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", bad, resp.StatusCode)
		}
	}
}

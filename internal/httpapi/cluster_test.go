package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// clusterServer runs the full hardened stack so /statusz is present and
// the cluster counters are live.
func clusterServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Options{Workers: 2}))
	t.Cleanup(srv.Close)
	return srv
}

func getStatus(t *testing.T, srv *httptest.Server) StatusResponse {
	t.Helper()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClusterPlanEndpoint(t *testing.T) {
	srv := clusterServer(t)
	resp, body := postJSON(t, srv, "/v1/cluster/plan", `{
		"zipfMovies": 4, "zipfTheta": 0.8,
		"nodes": 2, "replicas": 2, "hotMovies": 1
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var plan ClusterPlanResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(plan.Nodes) != 2 {
		t.Errorf("got %d nodes, want 2", len(plan.Nodes))
	}
	// 4 movies + 1 extra copy of the hot one.
	if len(plan.Assignments) != 5 {
		t.Errorf("got %d assignments, want 5: %+v", len(plan.Assignments), plan.Assignments)
	}
	placed := map[string]bool{}
	for _, a := range plan.Assignments {
		if a.N <= 0 || a.B <= 0 {
			t.Errorf("assignment %+v has empty allocation", a)
		}
		placed[a.Movie] = true
	}
	if len(placed) != 4 {
		t.Errorf("placed %d distinct movies, want 4", len(placed))
	}
	if plan.TotalStreams <= 0 || plan.TotalBuffer <= 0 {
		t.Errorf("empty totals: %+v", plan)
	}
}

func TestClusterSimulateEndpoint(t *testing.T) {
	srv := clusterServer(t)
	resp, body := postJSON(t, srv, "/v1/cluster/simulate", `{
		"zipfMovies": 3, "nodes": 2, "replicas": 2, "hotMovies": 1,
		"lambda": 1.0, "horizon": 600, "warmup": 60, "seed": 7,
		"fail": "node1@200"
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sim ClusterSimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sim.Nodes) != 2 || len(sim.Movies) != 3 {
		t.Fatalf("got %d nodes %d movies, want 2 and 3", len(sim.Nodes), len(sim.Movies))
	}
	if sim.Arrivals == 0 {
		t.Error("no arrivals simulated")
	}
	if sim.Hit < 0 || sim.Hit > 1 || sim.Availability < 0 || sim.Availability > 1 {
		t.Errorf("estimates outside [0,1]: %+v", sim)
	}
	faulted := false
	for _, n := range sim.Nodes {
		if n.Node == "node1" && n.Faulted {
			faulted = true
		}
	}
	if !faulted {
		t.Errorf("node1 not marked faulted: %+v", sim.Nodes)
	}
}

func TestClusterChurnEndpoint(t *testing.T) {
	srv := clusterServer(t)
	resp, body := postJSON(t, srv, "/v1/cluster/churn", `{
		"zipfMovies": 3, "nodes": 2, "replicas": 2, "hotMovies": 1,
		"lambda": 0.5, "horizon": 600, "warmup": 60, "seed": 7,
		"flash": "m01@200:3", "budgetMB": 20000, "interval": 10
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var churn ClusterChurnResponse
	if err := json.Unmarshal(body, &churn); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if churn.Arrivals == 0 {
		t.Error("no arrivals simulated")
	}
	if churn.Admitted+churn.ShedNoReplica+churn.ShedSaturated+churn.ShedDegraded != churn.Arrivals {
		t.Errorf("arrivals do not partition into admitted+sheds: %+v", churn)
	}
	if churn.Availability < 0 || churn.Availability > 1 ||
		churn.FloorAvailability < 0 || churn.FloorAvailability > churn.Availability {
		t.Errorf("availability out of range: %+v", churn)
	}
	if churn.MigrationMB*1e6 > 20000e6 {
		t.Errorf("migration traffic exceeds the requested budget: %+v", churn)
	}
	if churn.PeakLevel == "" {
		t.Errorf("missing peak degradation level: %+v", churn)
	}

	// A frozen run on the same scenario must show no controller activity.
	resp, body = postJSON(t, srv, "/v1/cluster/churn", `{
		"zipfMovies": 3, "nodes": 2, "replicas": 2, "hotMovies": 1,
		"lambda": 0.5, "horizon": 600, "warmup": 60, "seed": 7,
		"flash": "m01@200:3", "frozen": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frozen run status %d: %s", resp.StatusCode, body)
	}
	var frozen ClusterChurnResponse
	if err := json.Unmarshal(body, &frozen); err != nil {
		t.Fatalf("decode frozen: %v", err)
	}
	if frozen.ReplicaAdds != 0 || frozen.MigrationsStarted != 0 || frozen.MigrationMB != 0 {
		t.Errorf("frozen run shows controller activity: %+v", frozen)
	}
}

func TestClusterChurnErrors(t *testing.T) {
	srv := clusterServer(t)
	// Two Zipf titles pack onto two auto-sized nodes, so every case
	// reaches the check it names instead of failing placement first.
	cases := []struct {
		name, body, want string
	}{
		{"bad flash spec", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "flash": "bogus"}`,
			`bad flash crowd "bogus"`},
		{"unknown flash movie", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "flash": "m99@100:4"}`,
			`flash crowd targets unknown movie "m99"`},
		{"horizon cap", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 60000}`,
			`horizon 60000 exceeds the service cap 50000`},
		{"zero lambda", `{"zipfMovies": 2, "nodes": 2, "horizon": 500}`,
			`base rate 0`},
		{"bad fail spec", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "fail": "bogus"}`,
			`bad fault "bogus"`},
	}
	for _, c := range cases {
		postWantError(t, srv, "/v1/cluster/churn", c.name, c.body, c.want)
	}
}

// postWantError posts body and requires a 400 whose error text
// contains want.
func postWantError(t *testing.T, srv *httptest.Server, path, name, body, want string) {
	t.Helper()
	resp, raw := postJSON(t, srv, path, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		return
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Errorf("%s: decode error body: %v: %s", name, err, raw)
		return
	}
	if !strings.Contains(e.Error, want) {
		t.Errorf("%s: error %q, want it to contain %q", name, e.Error, want)
	}
}

// TestClusterChurnRefusesEngineSettings: churn runs no per-node
// simulations, so the simulate endpoint's engine settings are unknown
// fields on a churn request — refused, not silently ignored.
func TestClusterChurnRefusesEngineSettings(t *testing.T) {
	srv := clusterServer(t)
	const base = `"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 300, "warmup": 30`
	if resp, body := postJSON(t, srv, "/v1/cluster/churn", "{"+base+"}"); resp.StatusCode != http.StatusOK {
		t.Fatalf("request without engine settings: status %d: %s", resp.StatusCode, body)
	}
	for _, field := range []string{`"engine": "bogus"`, `"fluidThreshold": 5`} {
		resp, body := postJSON(t, srv, "/v1/cluster/churn", "{"+base+", "+field+"}")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
			t.Errorf("%s: status %d: %s, want 400 unknown field", field, resp.StatusCode, body)
		}
	}
}

func TestStatuszReportsLastChurn(t *testing.T) {
	srv := clusterServer(t)
	if st := getStatus(t, srv).Cluster; st.ChurnRequests != 0 || st.LastChurn != nil {
		t.Fatalf("fresh server has churn state: %+v", st)
	}
	resp, body := postJSON(t, srv, "/v1/cluster/churn", `{
		"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 300, "warmup": 30
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn run failed: %d %s", resp.StatusCode, body)
	}
	postJSON(t, srv, "/v1/cluster/churn", `{"nodes": 0}`) // errors count requests, not gauges
	st := getStatus(t, srv).Cluster
	if st.ChurnRequests != 2 {
		t.Errorf("churnRequests = %d, want 2", st.ChurnRequests)
	}
	if st.LastChurn == nil {
		t.Fatal("no lastChurn gauges after a successful run")
	}
	if st.LastChurn.Availability <= 0 || st.LastChurn.Availability > 1 {
		t.Errorf("lastChurn availability out of range: %+v", st.LastChurn)
	}
	if st.LastChurn.PeakLevel == "" {
		t.Errorf("lastChurn missing peak level: %+v", st.LastChurn)
	}
}

func TestClusterEndpointErrors(t *testing.T) {
	srv := clusterServer(t)
	cases := []struct {
		name, path, body, want string
	}{
		{"no catalog", "/v1/cluster/plan", `{"nodes": 2}`,
			`give movies or zipfMovies`},
		{"zero nodes", "/v1/cluster/plan", `{"zipfMovies": 3, "nodes": 0}`,
			`nodes 0 outside [1, 64]`},
		{"too many nodes", "/v1/cluster/plan", `{"zipfMovies": 3, "nodes": 1000}`,
			`nodes 1000 outside [1, 64]`},
		{"catalog cap", "/v1/cluster/plan", `{"zipfMovies": 100000, "nodes": 2}`,
			`zipfMovies 100000 exceeds the service cap 256`},
		{"one-sided budget", "/v1/cluster/plan", `{"zipfMovies": 3, "nodes": 2, "nodeStreams": 50}`,
			`give both nodeStreams and nodeBuffer, or neither`},
		{"horizon cap", "/v1/cluster/simulate", `{"zipfMovies": 3, "nodes": 8, "lambda": 1, "horizon": 20000}`,
			`horizon 20000 × 8 nodes exceeds the service cap 50000`},
		{"bad fail spec", "/v1/cluster/simulate", `{"zipfMovies": 2, "nodes": 2, "lambda": 1, "horizon": 500, "fail": "bogus"}`,
			`bad fault "bogus"`},
		{"unknown fail node", "/v1/cluster/simulate", `{"zipfMovies": 2, "nodes": 2, "lambda": 1, "horizon": 500, "fail": "node9@100"}`,
			`fault targets unknown node "node9"`},
	}
	for _, c := range cases {
		postWantError(t, srv, c.path, c.name, c.body, c.want)
	}
}

func TestStatuszCountsClusterRequests(t *testing.T) {
	srv := clusterServer(t)
	before := getStatus(t, srv).Cluster
	if before.PlanRequests != 0 || before.SimulateRequests != 0 {
		t.Fatalf("fresh server has nonzero cluster counts: %+v", before)
	}
	postJSON(t, srv, "/v1/cluster/plan", `{"zipfMovies": 3, "nodes": 2}`)
	postJSON(t, srv, "/v1/cluster/plan", `{"nodes": 0}`) // errors still count
	postJSON(t, srv, "/v1/cluster/simulate", `{
		"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 300, "warmup": 30
	}`)
	after := getStatus(t, srv).Cluster
	if after.PlanRequests != 2 {
		t.Errorf("planRequests = %d, want 2", after.PlanRequests)
	}
	if after.SimulateRequests != 1 {
		t.Errorf("simulateRequests = %d, want 1", after.SimulateRequests)
	}
}

func TestClusterChurnGray(t *testing.T) {
	srv := clusterServer(t)
	resp, body := postJSON(t, srv, "/v1/cluster/churn", `{
		"zipfMovies": 3, "nodes": 2, "replicas": 2, "headroom": 1.6,
		"lambda": 0.5, "horizon": 600, "warmup": 60, "seed": 7, "frozen": true,
		"gray": "slow:node0@100-500:15", "policy": "hedge"
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var churn ClusterChurnResponse
	if err := json.Unmarshal(body, &churn); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(churn.NodeHealth) != 2 {
		t.Fatalf("nodeHealth has %d entries, want 2: %+v", len(churn.NodeHealth), churn.NodeHealth)
	}
	for _, nh := range churn.NodeHealth {
		if nh.Node == "" || nh.State == "" || nh.Score <= 0 || nh.Score > 1 {
			t.Errorf("bad node health entry: %+v", nh)
		}
	}
	if churn.WaitP99 < churn.WaitP50 || churn.WaitMax < churn.WaitP99 {
		t.Errorf("wait quantiles inconsistent: %+v", churn)
	}
	if churn.HedgeWins > churn.Hedges {
		t.Errorf("hedge wins %d exceed hedges %d", churn.HedgeWins, churn.Hedges)
	}

	// The gray counters reach the /statusz gauges.
	st := getStatus(t, srv).Cluster
	if st.LastChurn == nil {
		t.Fatal("no lastChurn gauges after the gray run")
	}
	if st.LastChurn.Hedges != churn.Hedges || st.LastChurn.Quarantines != churn.Quarantines {
		t.Errorf("statusz gauges %+v do not match the run %+v", st.LastChurn, churn)
	}

	// A non-gray run reports no gray measurements at all.
	resp, body = postJSON(t, srv, "/v1/cluster/churn", `{
		"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 300, "warmup": 30, "frozen": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain run status %d: %s", resp.StatusCode, body)
	}
	var plain ClusterChurnResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatalf("decode plain: %v", err)
	}
	if plain.NodeHealth != nil || plain.Starved != 0 || plain.WaitP99 != 0 || plain.Hedges != 0 {
		t.Errorf("non-gray run reports gray measurements: %+v", plain)
	}
}

func TestClusterChurnGrayErrors(t *testing.T) {
	srv := clusterServer(t)
	cases := []struct {
		name, body, want string
	}{
		{"bad gray spec", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "gray": "bogus"}`,
			`gray fault "bogus" wants kind:node@start[-end]:factor`},
		{"unknown gray node", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "gray": "slow:node9@100:4"}`,
			`gray fault targets unknown node "node9"`},
		{"bad policy", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "policy": "psychic"}`,
			`unknown routing policy "psychic"`},
		{"bad brownout fraction", `{"zipfMovies": 2, "nodes": 2, "lambda": 0.5, "horizon": 500, "gray": "brownout:node0@100:1.5"}`,
			`brownout fraction 1.5 outside (0, 1]`},
	}
	for _, c := range cases {
		postWantError(t, srv, "/v1/cluster/churn", c.name, c.body, c.want)
	}
}

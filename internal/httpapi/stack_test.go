package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vodalloc/internal/parallel"
	"vodalloc/internal/resilience"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// bigPlanBody builds a /v1/plan request over a catalog large enough that
// the sweep runs for seconds: every movie gets a distinct name and
// length so the evaluator's memo cache cannot short-circuit the work.
func bigPlanBody(t *testing.T, movies int) []byte {
	t.Helper()
	req := PlanRequest{}
	for i := 0; i < movies; i++ {
		req.Movies = append(req.Movies, workload.MovieSpec{
			Name:      fmt.Sprintf("cancel-%03d", i),
			Length:    150 + float64(i),
			Wait:      0.25,
			TargetHit: 0.8,
			Dur:       "gamma:2:4",
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCanceledPlanFreesPool is the PR's acceptance test: a /v1/plan
// canceled mid-sweep must stop consuming worker-pool tokens within
// 100ms of the cancellation. The client cancels as soon as the sweep
// first holds a pool token, so the cancel lands mid-sweep by
// construction, however fast planning gets.
func TestCanceledPlanFreesPool(t *testing.T) {
	pool := parallel.NewPool(2)
	eval := &sizing.Evaluator{Workers: 2, Pool: pool}
	srv := httptest.NewServer(New(Options{Evaluator: eval}))
	defer srv.Close()

	body := bigPlanBody(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{})
	defer close(answered)
	go func() {
		for pool.InUse() == 0 {
			select {
			case <-answered:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
		cancel()
	}()
	resp, err := srv.Client().Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("plan finished before the mid-sweep cancel (status %d); enlarge the catalog", resp.StatusCode)
	}

	// The client has given up; the server-side sweep must drain its pool
	// tokens within 100ms even though nobody is reading the response.
	deadline := time.Now().Add(100 * time.Millisecond)
	for pool.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still holds %d tokens 100ms after cancellation", pool.InUse())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerTripsAndRecovers drives the breaker middleware through its
// whole cycle with a fake clock: consecutive deadline-expired requests
// trip it, tripped calls fast-fail with the circuit header, and after
// the cooldown a successful probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	br := resilience.NewBreaker(2, time.Minute)
	br.Clock = func() time.Time { return now }
	h := breakerGate(br, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	timedOut := func() *http.Request {
		ctx, cancel := context.WithDeadline(context.Background(), now.Add(-time.Second))
		t.Cleanup(cancel)
		return httptest.NewRequest(http.MethodPost, "/v1/simulate", nil).WithContext(ctx)
	}

	// Two deadline-expired requests reach the threshold.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, timedOut())
	}
	if got := br.State(); got != resilience.Open {
		t.Fatalf("breaker %v after threshold failures, want open", got)
	}

	// While open: fast-fail 503 with the circuit marker and a Retry-After.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d want 503", rec.Code)
	}
	if rec.Header().Get(breakerHeader) != "open" {
		t.Errorf("open-breaker 503 missing %s header", breakerHeader)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("open-breaker 503 missing Retry-After")
	}
	decodeErrorBody(t, rec)

	// After the cooldown a healthy probe closes the circuit.
	now = now.Add(2 * time.Minute)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("half-open probe returned %d want 200", rec.Code)
	}
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
}

// TestSimulateTimeoutTripsBreaker exercises the failure detector end to
// end: with a tiny request budget and threshold 1, one timed-out
// simulation must flip the circuit so the next call fast-fails.
func TestSimulateTimeoutTripsBreaker(t *testing.T) {
	h := New(Options{Timeout: 20 * time.Millisecond, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	srv := httptest.NewServer(h)
	defer srv.Close()

	slow := `{"config":{"l":120,"b":60,"n":30},"profile":{},"lambda":2,"horizon":50000,"seed":1}`
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow simulate returned %d want 503 (timeout)", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-trip simulate returned %d want 503", resp.StatusCode)
	}
	if resp.Header.Get(breakerHeader) != "open" {
		t.Errorf("post-trip 503 missing %s: open (headers %v)", breakerHeader, resp.Header)
	}
}

// serveIgnoringContext starts one breaker-gated request whose handler
// ignores its context and blocks until the returned release is called;
// release waits for the request to finish.
func serveIgnoringContext(ctx context.Context, br *resilience.Breaker) (release func()) {
	unblock, done := make(chan struct{}), make(chan struct{})
	h := breakerGate(br, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-unblock
	}))
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/simulate", nil).WithContext(ctx))
	}()
	return func() {
		close(unblock)
		<-done
	}
}

// TestBreakerRecordsTimeoutAtDeadline pins when a timeout counts: the
// breaker trips when the request's deadline fires, while a handler that
// ignores its context is still running — not when that handler returns.
func TestBreakerRecordsTimeoutAtDeadline(t *testing.T) {
	br := resilience.NewBreaker(1, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release := serveIgnoringContext(ctx, br)
	defer release()
	limit := time.Now().Add(5 * time.Second)
	for br.State() != resilience.Open {
		if time.Now().After(limit) {
			t.Fatalf("breaker %v 5s after the deadline fired, want open while the handler still runs", br.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerOneOutcomePerRequest pins that a timed-out request records
// exactly one outcome: its handler's eventual return must not also
// record a success that would reset the failure streak.
func TestBreakerOneOutcomePerRequest(t *testing.T) {
	br := resilience.NewBreaker(2, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release := serveIgnoringContext(ctx, br)
	<-ctx.Done()
	release()
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker %v after one timeout at threshold 2, want closed", got)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	serveIgnoringContext(expired, br)()
	if got := br.State(); got != resilience.Open {
		t.Fatalf("breaker %v after two timeouts at threshold 2, want open", got)
	}
}

// TestHealthEndpointsAndDrain walks the lifecycle the serving binary
// drives: starting (not ready), ready, draining — checking /healthz,
// /readyz, /statusz and the drain shed on API routes at each step.
func TestHealthEndpointsAndDrain(t *testing.T) {
	state := NewState()
	h := New(Options{State: state})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	check := func(path string, want int) {
		t.Helper()
		resp := get(path)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d want %d", path, resp.StatusCode, want)
		}
	}

	// Starting: alive but not ready.
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusServiceUnavailable)

	state.SetReady(true)
	check("/readyz", http.StatusOK)

	resp := get("/statusz")
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	resp.Body.Close()
	if !st.Ready || st.Draining {
		t.Errorf("statusz ready=%v draining=%v want ready, not draining", st.Ready, st.Draining)
	}
	if st.Goroutines <= 0 || st.SimCap <= 0 || st.WorkerCap <= 0 {
		t.Errorf("statusz gauges not populated: %+v", st)
	}
	if st.Inflight != 0 || st.SimInflight != 0 || st.WorkerTokens != 0 {
		t.Errorf("idle server reports nonzero occupancy: %+v", st)
	}
	if st.Breaker != "closed" {
		t.Errorf("statusz breaker %q want closed", st.Breaker)
	}

	// API routes work while ready.
	body := `{"config":{"l":120,"b":60,"n":30},"profile":{}}`
	post, err := http.Post(srv.URL+"/v1/hit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("/v1/hit while ready = %d want 200", post.StatusCode)
	}

	// Draining: probes flip, API sheds cleanly, liveness holds.
	state.BeginDrain()
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusServiceUnavailable)
	post, err = http.Post(srv.URL+"/v1/hit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/hit during drain = %d want 503", post.StatusCode)
	}
	if post.Header.Get("Retry-After") == "" {
		t.Error("drain 503 missing Retry-After")
	}

	resp = get("/statusz")
	st = StatusResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statusz decode during drain: %v", err)
	}
	resp.Body.Close()
	if st.Ready || !st.Draining {
		t.Errorf("statusz during drain ready=%v draining=%v", st.Ready, st.Draining)
	}
}

// TestStatuszReportsCacheOutcomes checks that /statusz surfaces the
// evaluator-cache gauges and the persistence outcomes the serving
// binary records around startup load and drain save.
func TestStatuszReportsCacheOutcomes(t *testing.T) {
	eval := &sizing.Evaluator{}
	cache := &CacheState{}
	srv := httptest.NewServer(New(Options{Evaluator: eval, Cache: cache}))
	defer srv.Close()

	statusz := func() StatusResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("statusz decode: %v", err)
		}
		return st
	}

	// Before any persistence event both outcomes read "none".
	st := statusz()
	if st.Cache.Load != "none" || st.Cache.Save != "none" {
		t.Errorf("pre-persistence cache outcomes %+v want none/none", st.Cache)
	}
	if st.Cache.Entries != 0 || st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("cold evaluator reports cache traffic: %+v", st.Cache)
	}

	cache.RecordLoad(412, nil)
	cache.RecordSave(0, fmt.Errorf("disk full"))
	st = statusz()
	if st.Cache.Load != "loaded 412 entries" {
		t.Errorf("load outcome %q want %q", st.Cache.Load, "loaded 412 entries")
	}
	if st.Cache.Save != "error: disk full" {
		t.Errorf("save outcome %q want %q", st.Cache.Save, "error: disk full")
	}

	// A sizing request must show up in the traffic gauges: the shared
	// evaluator is the one behind the endpoints.
	body := bigPlanBody(t, 1)
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/plan = %d want 200", resp.StatusCode)
	}
	if st = statusz(); st.Cache.Entries == 0 || st.Cache.Misses == 0 {
		t.Errorf("plan request left no cache traffic: %+v", st.Cache)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vodalloc/internal/httpapi"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// The serve workload drives an in-process HTTP service open loop:
// requests are due on a seeded Poisson schedule whether or not earlier
// ones have returned, and each is timed from when it was due, so a
// stall shows in the latency of every request it delays.
const (
	serveRate          = 50.0 // requests per second
	serveRequests      = 220  // per rep: about 4.4 seconds of traffic
	smallServeRequests = 50
	// Of every 20 requests, 9 ask /v1/hit, 7 /v1/plan and 4 /v1/simulate.
	hitShare, planShare = 0.45, 0.35
	planBodies          = 8
)

// Headers that carry a request's operation id and client span to the
// server side, so both ends of one request share the id in the trace.
const (
	opHeader   = "Vodperf-Op"
	spanHeader = "Vodperf-Span"
)

type serveReq struct {
	class string // hit, plan or sim
	body  []byte
	due   time.Duration // from the start of the schedule
	plan  int           // which plan body, for class plan
}

var servePaths = map[string]string{"hit": "/v1/hit", "plan": "/v1/plan", "sim": "/v1/simulate"}

// serveSchedule draws n requests with exact class counts in seeded
// order and Poisson due times. /v1/hit asks for distinct (B, n) points
// spread over stratified ranges (n in 20..60 streams, B in 20..90
// minutes of a 120-minute movie), each a fresh analytic evaluation;
// /v1/plan repeats one of the planBodies catalogs, which set-up plans
// once so these requests are cache hits; /v1/simulate runs a short
// DES (λ=0.5, horizon 800) under a seeded simulation seed.
func serveSchedule(seed int64, n int) ([]serveReq, []workload.MovieSpec) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]workload.MovieSpec, planBodies)
	for i := range specs {
		specs[i] = workload.MovieSpec{
			Name: fmt.Sprintf("p%d", i), Length: 60 + 60*rng.Float64(), Wait: float64(1 + i%2), TargetHit: 0.5,
			Dur: fmt.Sprintf("exp:%.3f", 2+4*rng.Float64()),
		}
	}
	hits := int(math.Round(hitShare * float64(n)))
	plans := int(math.Round(planShare * float64(n)))
	classes := make([]string, n)
	for i := range classes {
		switch {
		case i < hits:
			classes[i] = "hit"
		case i < hits+plans:
			classes[i] = "plan"
		default:
			classes[i] = "sim"
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	nPerm, bPerm := rng.Perm(hits), rng.Perm(hits)
	reqs := make([]serveReq, n)
	var due time.Duration
	h := 0
	for i, class := range classes {
		r := serveReq{class: class, due: due}
		switch class {
		case "hit":
			streams := 20 + int(40*(float64(nPerm[h])+rng.Float64())/float64(hits))
			b := 20 + 70*(float64(bPerm[h])+rng.Float64())/float64(hits)
			r.body = mustJSON(httpapi.HitRequest{Config: httpapi.ConfigJSON{L: 120, B: b, N: streams}})
			h++
		case "plan":
			r.plan = rng.Intn(planBodies)
			r.body = mustJSON(httpapi.PlanRequest{Movies: specs[r.plan : r.plan+1]})
		default:
			r.body = mustJSON(httpapi.SimulateRequest{
				Config: httpapi.ConfigJSON{L: 120, B: 60, N: 30}, Lambda: 0.5, Horizon: 800, Seed: 1 + rng.Int63n(1e9),
			})
		}
		reqs[i] = r
		due += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
	}
	return reqs, specs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain data
	}
	return b
}

// runServe serves httpapi.New(Options{}) on loopback and replays the
// schedule from nproc workers over at most nproc connections. Set-up
// plans each plan body directly (the reference every served plan must
// equal) and through the service once, warming its cache.
func runServe(c *child) error {
	n := serveRequests
	if c.Small {
		n = smallServeRequests
	}
	reqs, specs := serveSchedule(c.Seed, n)

	var h http.Handler = httpapi.New(httpapi.Options{})
	if c.tr != nil {
		h = tracedHandler(c.tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	direct := make([]httpapi.PlanResponse, planBodies)
	for i, s := range specs {
		m, err := s.ToMovie()
		if err != nil {
			return err
		}
		p, err := (&sizing.Evaluator{}).MinBufferPlan([]workload.Movie{m}, sizing.DefaultRates, 0, 0)
		if err != nil {
			return err
		}
		direct[i] = planResponse(p, sizing.PureBatchingStreams([]workload.Movie{m}))
		c.rep.Attempted++
		body := mustJSON(httpapi.PlanRequest{Movies: specs[i : i+1]})
		if err := post(client, base+"/v1/plan", body, nil, nil, func(b []byte) error { return checkPlanResponse(b, direct[i]) }); err != nil {
			c.fail(fmt.Sprintf("r%d.warm%d", c.Rep, i), err)
		}
	}

	check := func(r serveReq, b []byte) error {
		switch r.class {
		case "hit":
			return checkHit(b)
		case "plan":
			return checkPlanResponse(b, direct[r.plan])
		}
		return checkSim(b)
	}
	var (
		next atomic.Int64
		mu   sync.Mutex // guards c's report and last
		last time.Time
		wg   sync.WaitGroup
	)
	c.start()
	start := time.Now()
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) {
				return
			}
			r := reqs[i]
			due := start.Add(r.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			// How late the request goes out: sleep overshoot, or how long
			// it waited for a free worker past its due time.
			late := msSince(due)
			id := fmt.Sprintf("r%d.q%d", c.Rep, i)
			sp, end := c.tr.begin(id, c.root, "serve."+r.class)
			hdr := http.Header{opHeader: {id}, spanHeader: {strconv.Itoa(sp)}}
			var gotConn time.Time
			trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() }}
			err := post(client, base+servePaths[r.class], r.body, hdr, trace, func(b []byte) error { return check(r, b) })
			done := time.Now()
			end()
			mu.Lock()
			c.rep.Attempted++
			if err != nil {
				c.fail(id, err)
			}
			ms := float64(done.Sub(due).Nanoseconds()) / 1e6
			c.answer(ms)
			c.sample(r.class, ms)
			if !gotConn.IsZero() {
				c.sample("queue", float64(gotConn.Sub(due).Nanoseconds())/1e6)
			}
			c.sample("late", late)
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}
	}
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go worker()
	}
	wg.Wait()
	c.detail("achieved_rps", "1/s", float64(len(reqs))/last.Sub(start).Seconds())
	return nil
}

// post sends body to url with the extra headers hdr and hands a 200
// response's body to check. trace, when non-nil, observes the request's
// connection.
func post(client *http.Client, url string, body []byte, hdr http.Header, trace *httptrace.ClientTrace, check func([]byte) error) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if trace != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", url, resp.StatusCode, b)
	}
	return check(b)
}

// tracedHandler records a server-side span for every request, under
// the client's span for it.
func tracedHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		_, end := t.begin(r.Header.Get(opHeader), parent, "httpapi"+r.URL.Path)
		defer end()
		next.ServeHTTP(w, r)
	})
}

func planResponse(p sizing.Plan, pure int) httpapi.PlanResponse {
	resp := httpapi.PlanResponse{TotalStreams: p.TotalStreams, TotalBuffer: p.TotalBuffer, PureBatching: pure}
	for _, a := range p.Allocs {
		resp.Allocs = append(resp.Allocs, httpapi.AllocJSON{Movie: a.Movie, N: a.N, B: a.B, Hit: a.Hit, Wait: a.Wait})
	}
	return resp
}

func checkPlanResponse(b []byte, want httpapi.PlanResponse) error {
	var got httpapi.PlanResponse
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("served plan differs from the direct plan")
	}
	return nil
}

func checkHit(b []byte) error {
	var got httpapi.HitResponse
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("decode hit: %w", err)
	}
	return unitInterval("hit", got.Hit, got.HitFF, got.HitRW, got.HitPAU)
}

func checkSim(b []byte) error {
	var got httpapi.SimulateResponse
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("decode simulate: %w", err)
	}
	return unitInterval("simulated hit", got.Hit, got.ModelHit)
}

func unitInterval(what string, ps ...float64) error {
	for _, p := range ps {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("%s %v outside [0,1]", what, p)
		}
	}
	return nil
}

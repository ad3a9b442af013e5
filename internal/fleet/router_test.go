package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/fleet"
	"canary/internal/server"
)

const buggySrc = `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`

// newWorker starts a real in-process canaryd server.
func newWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return s, ts
}

func newRouter(t *testing.T, cfg fleet.RouterConfig) (*fleet.Router, *httptest.Server) {
	t.Helper()
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func post(t *testing.T, url string, v interface{}) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// reportsOf extracts the findings from a serialized result — the part of
// the output the determinism contract pins byte-for-byte (timings vary).
func reportsOf(t *testing.T, result json.RawMessage) string {
	t.Helper()
	var m struct {
		Reports json.RawMessage `json:"Reports"`
	}
	if err := json.Unmarshal(result, &m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m.Reports); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRouterForwardsAndAgreesWithDirect routes one submission through a
// two-worker fleet and checks the findings equal a direct library run:
// routing must be invisible in the output.
func TestRouterForwardsAndAgreesWithDirect(t *testing.T) {
	_, w1 := newWorker(t, server.Config{})
	_, w2 := newWorker(t, server.Config{})
	rt, ts := newRouter(t, fleet.RouterConfig{Workers: []string{w1.URL, w2.URL}})

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusOK {
		t.Fatalf("routed submission = %d: %s", code, body)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != "done" {
		t.Fatalf("routed job = %+v", jr)
	}

	res, err := canary.Analyze(buggySrc, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if reportsOf(t, jr.Result) != reportsOf(t, direct) {
		t.Fatalf("routed findings differ from a direct library run:\nrouted: %s\ndirect: %s", reportsOf(t, jr.Result), reportsOf(t, direct))
	}

	// A repeat routes to the same owner and hits its cache.
	code, body = post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var warm api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &warm) != nil {
		t.Fatalf("warm repeat = %d", code)
	}
	if !warm.Cached {
		t.Fatal("repeat through the router should hit the owner's cache")
	}
	if got := rt.Stats(); got.Requests != 2 || got.Exhausted != 0 {
		t.Fatalf("router stats = %+v", got)
	}
}

// TestRouterBatchFanout sends a batch through two workers and checks
// per-item results come back in request order with the owner split the
// ring dictates.
func TestRouterBatchFanout(t *testing.T) {
	sA, w1 := newWorker(t, server.Config{})
	sB, w2 := newWorker(t, server.Config{})
	rt, ts := newRouter(t, fleet.RouterConfig{Workers: []string{w1.URL, w2.URL}})

	// Grow the padded corpus until each worker owns at least two items:
	// the ports are random, so a fixed-size corpus can land entirely on
	// one worker. The search is bounded; past it the guard below fails.
	var items []api.AnalyzeItem
	var wantKeys []string
	ownerCount := map[string]int{}
	for i := 0; i < 64 && (ownerCount[w1.URL] < 2 || ownerCount[w2.URL] < 2); i++ {
		src := fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i)
		items = append(items, api.AnalyzeItem{Source: src})
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		wantKeys = append(wantKeys, fmt.Sprintf("%x", key))
		ownerCount[rt.Ring().Owner(key)]++
	}
	// Both workers must own something, or the test would silently cover
	// less than it claims.
	if len(ownerCount) != 2 {
		t.Fatalf("corpus does not split across both workers: %v", ownerCount)
	}

	code, body := post(t, ts.URL, api.AnalyzeRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Completed != len(items) || br.Failed != 0 {
		t.Fatalf("tally = %d/%d, want %d/0", br.Completed, br.Failed, len(items))
	}
	for i, it := range br.Items {
		if it.CacheKey != wantKeys[i] {
			t.Errorf("item %d came back under key %s, want %s (order broken?)", i, it.CacheKey, wantKeys[i])
		}
	}

	// Each worker computed exactly its owned share: the routing key the
	// router derived matches the daemon's own content addressing.
	statsA, statsB := workerAccepted(t, w1.URL), workerAccepted(t, w2.URL)
	if statsA != ownerCount[w1.URL] || statsB != ownerCount[w2.URL] {
		t.Errorf("owner split = %d/%d, ring says %d/%d",
			statsA, statsB, ownerCount[w1.URL], ownerCount[w2.URL])
	}
	_, _ = sA, sB
}

func workerAccepted(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "canaryd_jobs_accepted_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("no accepted counter in worker metrics")
	return 0
}

// fakeWorker is a scriptable stand-in for canaryd: per-request behavior
// by attempt count, plus a healthz.
type fakeWorker struct {
	mu       sync.Mutex
	requests int
	respond  func(n int, w http.ResponseWriter)
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.requests++
		n := f.requests
		f.mu.Unlock()
		f.respond(n, w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok", QueueCapacity: 8})
	})
	return mux
}

func (f *fakeWorker) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

func okJob(w http.ResponseWriter, tag string) {
	json.NewEncoder(w).Encode(api.JobResponse{Status: "done", JobID: tag})
}

// TestRouterFailover scripts the owner to fail and expects the next
// replica in ring order to answer, with the failover counted.
func TestRouterFailover(t *testing.T) {
	// Both fakes answer; one is scripted to 500 every time. Whichever the
	// ring picks as owner, a routed submission must come back "done" from
	// the healthy one.
	bad := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}}
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		okJob(w, "good")
	}}
	tsBad := httptest.NewServer(bad.handler())
	defer tsBad.Close()
	tsGood := httptest.NewServer(good.handler())
	defer tsGood.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:      []string{tsBad.URL, tsGood.URL},
		RetryBackoff: time.Millisecond,
	})

	// Find a source owned by the bad worker so the walk must fail over.
	src := buggySrc
	for i := 0; ; i++ {
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if rt.Ring().Owner(key) == tsBad.URL {
			break
		}
		src = fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i)
	}

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: src})
	if code != http.StatusOK {
		t.Fatalf("failover submission = %d: %s", code, body)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || jr.JobID != "good" {
		t.Fatalf("response = %s", body)
	}
	if bad.count() == 0 || good.count() == 0 {
		t.Fatalf("owner was not tried first: bad=%d good=%d", bad.count(), good.count())
	}
	if got := rt.Stats(); got.Failovers == 0 || got.UpstreamErrs == 0 {
		t.Fatalf("failover not counted: %+v", got)
	}
}

// TestRouterExhaustion: every worker fails → 502, exhaustion counted.
func TestRouterExhaustion(t *testing.T) {
	bad := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}}
	tsBad := httptest.NewServer(bad.handler())
	defer tsBad.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:      []string{tsBad.URL},
		RetryBackoff: time.Millisecond,
	})
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusBadGateway {
		t.Fatalf("exhausted walk = %d: %s", code, body)
	}
	if got := rt.Stats(); got.Exhausted != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestRouterDedup holds the single upstream worker slow and fires
// concurrent identical submissions: exactly one upstream call, every
// caller gets its response.
func TestRouterDedup(t *testing.T) {
	release := make(chan struct{})
	slow := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		<-release
		okJob(w, fmt.Sprintf("call-%d", n))
	}}
	tsSlow := httptest.NewServer(slow.handler())
	defer tsSlow.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{Workers: []string{tsSlow.URL}})

	const callers = 8
	var started, done sync.WaitGroup
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			_, bodies[i] = post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
		}(i)
	}
	started.Wait()
	// Release only once every follower has joined the in-flight entry, so
	// no late arrival can become a second leader.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Deduped != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", rt.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	done.Wait()

	if got := slow.count(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got a different body", i)
		}
	}
	if got := rt.Stats(); got.Deduped != callers-1 {
		t.Fatalf("deduped = %d, want %d", got.Deduped, callers-1)
	}
}

// TestRouterHealthStates checks the checker distinguishes a dead worker
// from a live one and the router routes around the corpse.
func TestRouterHealthStates(t *testing.T) {
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "good") }}
	tsGood := httptest.NewServer(good.handler())
	defer tsGood.Close()

	// A listener that is closed immediately: connection refused, i.e. down.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:        []string{tsGood.URL, deadURL},
		RetryBackoff:   time.Millisecond,
		HealthInterval: 10 * time.Millisecond,
	})

	deadline := time.Now().Add(5 * time.Second)
	for {
		states := rt.WorkerStates()
		if states[deadURL] == fleet.WorkerDown && states[tsGood.URL] == fleet.WorkerUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never settled: %v", states)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Any submission — even one owned by the dead node — lands on the
	// live worker without burning an attempt on the corpse.
	forwardsBefore := rt.Stats().Forwards
	code, _ := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusOK {
		t.Fatalf("submission with a dead worker = %d", code)
	}
	if got := rt.Stats().Forwards - forwardsBefore; got != 1 {
		t.Fatalf("upstream posts = %d, want 1 (down node should be skipped)", got)
	}

	// The router healthz reports both states.
	resp, err := http.Get(ts.URL + "/healthz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Status  string `json:"status"`
		Workers []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Status != "ok" || len(report.Workers) != 2 {
		t.Fatalf("healthz report = %+v", report)
	}
	states := map[string]string{}
	for _, w := range report.Workers {
		states[w.URL] = w.State
	}
	if states[deadURL] != "down" || states[tsGood.URL] != "up" {
		t.Fatalf("reported states = %v", states)
	}
}

// TestRouterSaturatedIsNotDown: a full-queue worker stays routable.
func TestRouterSaturatedIsNotDown(t *testing.T) {
	var sat atomic.Bool
	sat.Store(true)
	worker := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "ok") }}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/analyze", worker.handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := api.Health{Status: "ok", QueueCapacity: 4}
		if sat.Load() {
			h.QueueDepth = 4
		}
		json.NewEncoder(w).Encode(h)
	})
	tsW := httptest.NewServer(mux)
	defer tsW.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:        []string{tsW.URL},
		HealthInterval: 10 * time.Millisecond,
	})

	deadline := time.Now().Add(5 * time.Second)
	for rt.WorkerStates()[tsW.URL] != fleet.WorkerSaturated {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never observed: %v", rt.WorkerStates())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Saturated ≠ down: the submission still routes there (the worker's
	// admission retry loop absorbs the wait).
	code, _ := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	if code != http.StatusOK {
		t.Fatalf("submission to saturated worker = %d", code)
	}
}

// TestRouterRejectsAsync: async is a per-worker concept.
func TestRouterRejectsAsync(t *testing.T) {
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "ok") }}
	tsW := httptest.NewServer(good.handler())
	defer tsW.Close()
	_, ts := newRouter(t, fleet.RouterConfig{Workers: []string{tsW.URL}})

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc, Async: true})
	if code != http.StatusBadRequest {
		t.Fatalf("async through router = %d: %s", code, body)
	}
	if good.count() != 0 {
		t.Fatal("async request reached a worker")
	}
}

// postResp is post with header access, for tests that assert on
// Retry-After and friends.
func postResp(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// srcOwnedBy pads buggySrc until the ring places it on owner.
func srcOwnedBy(t *testing.T, rt *fleet.Router, owner string) string {
	t.Helper()
	src := buggySrc
	for i := 0; ; i++ {
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if rt.Ring().Owner(key) == owner {
			return src
		}
		if i > 256 {
			t.Fatal("no padded source lands on the wanted owner")
		}
		src = fmt.Sprintf("%s\nfunc pad%d() { p = malloc(); }", buggySrc, i)
	}
}

// TestRouterBreakerOpensAndRecovers walks one worker's breaker through
// the full cycle: consecutive hard failures open it, an open breaker
// demotes the worker to last-resort (unused while a healthy replica
// answers), the cooldown admits a half-open probe, and a probe success
// closes it again.
func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	flaky := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		okJob(w, "flaky")
	}}
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "good") }}
	tsFlaky := httptest.NewServer(flaky.handler())
	defer tsFlaky.Close()
	tsGood := httptest.NewServer(good.handler())
	defer tsGood.Close()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:          []string{tsFlaky.URL, tsGood.URL},
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
	})
	// Distinct sources, every one owned by the flaky worker, so each
	// walk tries it first (padding changes the key, so ownership must be
	// re-derived per source, not assumed from a shared prefix).
	srcs := make([]string, 3)
	for i, pad := 0, 0; i < len(srcs); pad++ {
		src := fmt.Sprintf("%s\nfunc dist%d() { p = malloc(); }", buggySrc, pad)
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if rt.Ring().Owner(key) == tsFlaky.URL {
			srcs[i] = src
			i++
		}
		if pad > 1024 {
			t.Fatal("no padded sources land on the flaky worker")
		}
	}
	src := srcs[0]

	// Two failing walks: each tries the owner (hard failure), fails over
	// to the healthy worker. The second failure trips the breaker.
	for i := 0; i < 2; i++ {
		code, body := post(t, ts.URL, api.AnalyzeRequest{Source: srcs[i+1]})
		if code != http.StatusOK {
			t.Fatalf("walk %d = %d: %s", i, code, body)
		}
	}
	if st := rt.BreakerStates()[tsFlaky.URL]; st != fleet.BreakerOpen {
		t.Fatalf("breaker after %d hard failures = %v, want open", 2, st)
	}
	if got := rt.Stats().BreakerOpens; got != 1 {
		t.Fatalf("breaker opens counted = %d, want 1", got)
	}

	// While open, the flaky worker is skipped entirely: the next
	// submission goes straight to the healthy one, no failover burned.
	before := flaky.count()
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: src})
	if code != http.StatusOK {
		t.Fatalf("submission with open breaker = %d: %s", code, body)
	}
	if flaky.count() != before {
		t.Fatal("open breaker did not keep traffic off the failing worker")
	}

	// After the cooldown the worker has healed; the half-open probe
	// succeeds and the breaker closes.
	failing.Store(false)
	time.Sleep(200 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for rt.BreakerStates()[tsFlaky.URL] != fleet.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after recovery: %v", rt.BreakerStates())
		}
		post(t, ts.URL, api.AnalyzeRequest{Source: src})
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterHedgedRequest pins the hedging path: once a latency
// baseline exists, a forward stuck past the hedge delay fires a second
// attempt at the next ring candidate and the first answer wins — the
// client sees the fast worker's response while the owner is still
// stalled.
func TestRouterHedgedRequest(t *testing.T) {
	release := make(chan struct{})
	fast := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "fast") }}
	slow := &fakeWorker{respond: func(n int, w http.ResponseWriter) {
		<-release
		okJob(w, "slow")
	}}
	tsFast := httptest.NewServer(fast.handler())
	tsSlow := httptest.NewServer(slow.handler())
	defer func() {
		close(release)
		tsFast.Close()
		tsSlow.Close()
	}()

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:       []string{tsFast.URL, tsSlow.URL},
		HedgeQuantile: 0.5,
		HedgeMinDelay: 5 * time.Millisecond,
		Timeout:       10 * time.Second,
	})

	// Warm the latency sampler with eight fast-owned submissions; below
	// eight samples hedging stays off by design (no baseline, no hedge).
	warm := 0
	for i := 0; warm < 8; i++ {
		src := fmt.Sprintf("%s\nfunc warm%d() { p = malloc(); }", buggySrc, i)
		key := canary.SubmissionKey(src, canary.DefaultOptions())
		if rt.Ring().Owner(key) != tsFast.URL {
			continue
		}
		if code, body := post(t, ts.URL, api.AnalyzeRequest{Source: src}); code != http.StatusOK {
			t.Fatalf("warmup %d = %d: %s", i, code, body)
		}
		warm++
	}
	if got := rt.Stats().Hedges; got != 0 {
		t.Fatalf("hedges during warmup = %d, want 0", got)
	}

	// Now a submission owned by the stalled worker: the hedge must fire
	// and the fast replica's answer must win.
	src := srcOwnedBy(t, rt, tsSlow.URL)
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: src})
	if code != http.StatusOK {
		t.Fatalf("hedged submission = %d: %s", code, body)
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || jr.JobID != "fast" {
		t.Fatalf("hedged response = %s, want the fast worker's answer", body)
	}
	st := rt.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge not counted: hedges=%d wins=%d", st.Hedges, st.HedgeWins)
	}
}

// TestRouterAllWorkersDownFailsFast: with every worker unreachable the
// router answers quickly with a typed JSON 502 plus a Retry-After hint
// instead of hanging, and resumes routing the moment a membership (or
// operator) update brings a live worker back — no restart needed.
func TestRouterAllWorkersDownFailsFast(t *testing.T) {
	corpse := httptest.NewServer(http.NotFoundHandler())
	corpseURL := corpse.URL
	corpse.Close() // connection refused from here on

	rt, ts := newRouter(t, fleet.RouterConfig{
		Workers:      []string{corpseURL},
		RetryBackoff: time.Millisecond,
		Timeout:      2 * time.Second,
	})

	start := time.Now()
	resp := postResp(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down submission = %d: %s", resp.StatusCode, buf.Bytes())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("all-down walk took %v, want fail-fast", elapsed)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(buf.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("error body is not typed JSON: %s", buf.Bytes())
	}
	if got := rt.Stats().Exhausted; got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}

	// An empty member set (dynamic ring with nothing known) refuses with
	// 503 + Retry-After rather than attempting anything.
	rt.SetWorkers(nil)
	resp2 := postResp(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") != "1" {
		t.Fatalf("empty-ring submission = %d, Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	// Recovery: a live worker appears (as a membership change would
	// deliver it) and the very next submission routes without a restart.
	good := &fakeWorker{respond: func(n int, w http.ResponseWriter) { okJob(w, "revived") }}
	tsGood := httptest.NewServer(good.handler())
	defer tsGood.Close()
	rt.SetWorkers([]string{tsGood.URL})
	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var jr api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &jr) != nil || jr.JobID != "revived" {
		t.Fatalf("post-recovery submission = %d: %s", code, body)
	}
}

// newJoinWorker starts a real canaryd with dynamic membership. The
// listener exists before the server so the advertise URL is its own
// real address; the returned kill() makes the whole endpoint vanish
// like SIGKILL (everything 503s, gossip included).
func newJoinWorker(t *testing.T, seeds []string, interval time.Duration) (url string, kill func()) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hp := h.Load(); hp != nil {
			(*hp).ServeHTTP(w, r)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(dispatch)
	t.Cleanup(ts.Close)
	if len(seeds) == 0 {
		// A first node seeds with itself: the agent skips self in the
		// seed list, but membership (and the gossip endpoint) is on.
		seeds = []string{ts.URL}
	}
	s, err := server.New(server.Config{
		Join:           append([]string(nil), seeds...),
		Advertise:      ts.URL,
		GossipInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	h.Store(&handler)
	killed := false
	kill = func() {
		if killed {
			return
		}
		killed = true
		h.Store(nil)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	t.Cleanup(kill)
	return ts.URL, kill
}

// TestRouterJoinLearnsWorkers boots two real workers gossiping among
// themselves and a router configured with nothing but join seeds: the
// router must learn the worker set through membership, build its ring,
// route a real submission — and drop a worker from the ring when it
// dies, all without being restarted.
func TestRouterJoinLearnsWorkers(t *testing.T) {
	const interval = 20 * time.Millisecond
	w1, _ := newJoinWorker(t, nil, interval)
	w2, killW2 := newJoinWorker(t, []string{w1}, interval)

	rt, ts := newRouter(t, fleet.RouterConfig{
		Join:           []string{w1},
		Self:           "http://router.invalid",
		GossipInterval: interval,
		RetryBackoff:   time.Millisecond,
	})

	deadline := time.Now().Add(10 * time.Second)
	for rt.Ring().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("router never learned both workers: ring len %d", rt.Ring().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := post(t, ts.URL, api.AnalyzeRequest{Source: buggySrc})
	var jr api.JobResponse
	if code != http.StatusOK || json.Unmarshal(body, &jr) != nil || jr.Status != "done" {
		t.Fatalf("routed submission over learned ring = %d: %s", code, body)
	}

	// Kill worker 2; the router must shrink the ring to the survivor on
	// its own (suspect → dead on the gossip clocks, then an OnChange).
	killW2()
	_ = w2
	deadline = time.Now().Add(20 * time.Second)
	for rt.Ring().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("router never dropped the dead worker: ring len %d", rt.Ring().Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Ring().Owner(canary.SubmissionKey(buggySrc, canary.DefaultOptions())) != w1 {
		t.Fatal("survivor is not the remaining ring member")
	}
}

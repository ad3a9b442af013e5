package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/cache"
	"canary/internal/membership"
)

// WorkerState is the router's view of one canaryd node, refreshed by the
// background health checker. The distinction that matters for routing:
// a saturated node is alive and will drain — route to it and let the
// worker's admission retries absorb the wait — while a down node gets
// skipped in the failover walk entirely.
type WorkerState int32

const (
	// WorkerUnknown is the pre-first-probe state; routed optimistically.
	WorkerUnknown WorkerState = iota
	// WorkerUp answers /healthz with admission capacity to spare.
	WorkerUp
	// WorkerSaturated answers /healthz but its queue is full (or it is
	// draining): alive, temporarily rejecting.
	WorkerSaturated
	// WorkerDown does not answer at all.
	WorkerDown
)

func (s WorkerState) String() string {
	switch s {
	case WorkerUp:
		return "up"
	case WorkerSaturated:
		return "saturated"
	case WorkerDown:
		return "down"
	}
	return "unknown"
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Workers is the static fleet member list: canaryd base URLs. Either
	// Workers or Join must be non-empty.
	Workers []string
	// Join enables dynamic membership instead of a static list: the
	// router gossips with these seed URLs, learns the worker set from
	// the membership protocol, and rebuilds its ring on every change —
	// no restart needed when workers die, rejoin, or scale.
	Join []string
	// Self is the router's advertised base URL, required with Join (it
	// is the router's identity in the gossip protocol).
	Self string
	// GossipInterval, SuspectAfter, DeadAfter tune the membership agent
	// (zero values use the membership defaults).
	GossipInterval time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	// MaxRequestBytes bounds an accepted request body (0 = 16 MiB), the
	// same governance knob canaryd has.
	MaxRequestBytes int64
	// MaxAttempts bounds how many workers one submission may be offered
	// to before the router gives up (0 = 3).
	MaxAttempts int
	// RetryBackoff is the base delay between failover attempts, jittered
	// ±50% (0 = 25ms).
	RetryBackoff time.Duration
	// Timeout bounds one upstream call (0 = 5 minutes; analyses can be
	// slow, and the worker's own job timeout is the real governor).
	Timeout time.Duration
	// HealthInterval is the probe period of the background health checker
	// (0 = 1s).
	HealthInterval time.Duration
	// Seed seeds the router's private jitter source (0 = 1). Chaos and
	// smoke runs pin it so backoff schedules are reproducible; a private
	// source also keeps failovers off the global rand lock.
	Seed int64
	// HedgeQuantile, in (0,1), arms hedged requests for single-item
	// submissions: when a forward has been in flight longer than this
	// quantile of recently observed latencies, the same key is fired at
	// the next ring candidate and the first answer wins — safe because
	// results are content-addressed and both tiers dedup in flight.
	// 0 disables hedging. Hedging stays off until enough samples exist.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay (0 = 25ms) so sub-millisecond
	// cache-hit latencies cannot make the router double every request.
	HedgeMinDelay time.Duration
	// BreakerThreshold is how many consecutive failures open a worker's
	// circuit breaker (0 = 3; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks routing before
	// a half-open probe is allowed through (0 = 2s).
	BreakerCooldown time.Duration
}

// Router is the stateless fleet front door: it consistent-hashes every
// submission's SubmissionKey across the current workers, forwards to
// the owner, fails over down the ring on worker errors, hedges slow
// single-item calls, and coalesces identical concurrent submissions
// into one upstream call. It holds no durable state — restarting a
// router loses nothing but the in-flight table.
type Router struct {
	cfg  RouterConfig
	ring atomic.Pointer[Ring]
	hc   *http.Client

	agent *membership.Agent // nil in static-worker mode

	// inflight coalesces identical concurrent sync submissions (same
	// SubmissionKey) into one upstream call whose response everyone gets.
	inflight      sync.Mutex
	inflightByKey map[cache.Key]*inflightCall

	health sync.Map // worker URL -> WorkerState

	// Per-worker circuit breakers: consecutive hard failures open the
	// breaker, routing skips the worker for a cooldown, then one
	// half-open probe decides. Distinct from the health map: the probe
	// loop samples /healthz on a timer, the breaker reacts to real
	// forwarding traffic immediately.
	breakerMu sync.Mutex
	breakers  map[string]*breaker

	// rng drives backoff jitter; private and seeded for reproducibility.
	rngMu sync.Mutex
	rng   *rand.Rand

	// Latency sampler feeding the hedge delay: a ring buffer of recent
	// successful single-item forward latencies.
	latMu  sync.Mutex
	lats   [64]time.Duration
	latN   int
	latIdx int

	stopOnce sync.Once
	stop     chan struct{}

	// The router_* counters.
	requests      atomic.Uint64 // single-form submissions accepted for routing
	batchRequests atomic.Uint64 // batch envelopes
	items         atomic.Uint64 // items routed (1 per single, N per batch)
	forwards      atomic.Uint64 // upstream POSTs actually sent
	failovers     atomic.Uint64 // attempts beyond the first for one item
	upstreamErrs  atomic.Uint64 // upstream calls that failed (transport or 5xx)
	deduped       atomic.Uint64 // submissions answered by an in-flight duplicate
	exhausted     atomic.Uint64 // items that ran out of failover candidates
	hedges        atomic.Uint64 // hedge attempts launched
	hedgeWins     atomic.Uint64 // hedge attempts that answered first
	breakerOpens  atomic.Uint64 // closed/half-open -> open transitions
}

type inflightCall struct {
	done chan struct{}
	code int
	body []byte
}

// NewRouter builds a router and starts its health checker (and, with
// Join, its membership agent). Close stops both.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Workers) == 0 && len(cfg.Join) == 0 {
		return nil, errors.New("fleet: router needs a worker list or a join seed list")
	}
	if len(cfg.Join) > 0 && cfg.Self == "" {
		return nil, errors.New("fleet: Join requires Self (the router's advertised URL)")
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 16 << 20
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HedgeQuantile < 0 || cfg.HedgeQuantile >= 1 {
		return nil, fmt.Errorf("fleet: HedgeQuantile %v outside [0,1)", cfg.HedgeQuantile)
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = 25 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	rt := &Router{
		cfg:           cfg,
		hc:            &http.Client{Timeout: cfg.Timeout},
		inflightByKey: make(map[cache.Key]*inflightCall),
		breakers:      make(map[string]*breaker),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		stop:          make(chan struct{}),
	}
	rt.ring.Store(NewRing(cfg.Workers))
	if len(cfg.Join) == 0 && rt.Ring().Len() == 0 {
		return nil, errors.New("fleet: worker list is empty after deduplication")
	}
	if len(cfg.Join) > 0 {
		agent, err := membership.New(membership.Config{
			Self:         cfg.Self,
			Role:         api.RoleRouter,
			Seeds:        cfg.Join,
			Interval:     cfg.GossipInterval,
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
			OnChange: func(ms []membership.Member) {
				rt.SetWorkers(membership.AliveIDs(ms, api.RoleWorker))
			},
		})
		if err != nil {
			return nil, err
		}
		rt.agent = agent
		agent.Start()
	}
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health checker and the membership agent. In-flight
// requests finish normally.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		if rt.agent != nil {
			rt.agent.Close()
		}
	})
}

// Ring returns the router's current membership view.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// SetWorkers atomically replaces the worker set: a new rendezvous ring,
// with health and breaker state pruned to the members that remain.
// Membership events land here; it is also safe to call directly.
func (rt *Router) SetWorkers(workers []string) {
	ring := NewRing(workers)
	rt.ring.Store(ring)
	keep := make(map[string]bool, ring.Len())
	for _, w := range ring.Nodes() {
		keep[w] = true
	}
	rt.health.Range(func(k, _ any) bool {
		if !keep[k.(string)] {
			rt.health.Delete(k)
		}
		return true
	})
	rt.breakerMu.Lock()
	for w := range rt.breakers {
		if !keep[w] {
			delete(rt.breakers, w)
		}
	}
	rt.breakerMu.Unlock()
}

// --- circuit breakers ---

// BreakerState is one worker's circuit breaker position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; failures are being counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: cooldown expired; probes in flight will decide.
	BreakerHalfOpen
	// BreakerOpen: consecutive failures tripped it; routing skips the
	// worker until the cooldown expires.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "closed"
}

type breaker struct {
	state       BreakerState
	fails       int       // consecutive hard failures
	openedUntil time.Time // end of the current cooldown
}

func (rt *Router) breakerOf(worker string) *breaker {
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	b, ok := rt.breakers[worker]
	if !ok {
		b = &breaker{}
		rt.breakers[worker] = b
	}
	return b
}

// breakerBlocked reports whether routing should skip worker right now:
// open, and the cooldown has not yet expired. An expired cooldown does
// not block — the next real request through is the half-open probe.
func (rt *Router) breakerBlocked(worker string) bool {
	if rt.cfg.BreakerThreshold < 0 {
		return false
	}
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	b, ok := rt.breakers[worker]
	return ok && b.state == BreakerOpen && time.Now().Before(b.openedUntil)
}

// breakerAttempt marks the start of one forwarding attempt: an open
// breaker whose cooldown expired moves to half-open (this attempt is
// the probe).
func (rt *Router) breakerAttempt(worker string) {
	if rt.cfg.BreakerThreshold < 0 {
		return
	}
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	b, ok := rt.breakers[worker]
	if ok && b.state == BreakerOpen && !time.Now().Before(b.openedUntil) {
		b.state = BreakerHalfOpen
	}
}

// breakerSuccess closes the breaker: the worker answered usefully.
func (rt *Router) breakerSuccess(worker string) {
	if rt.cfg.BreakerThreshold < 0 {
		return
	}
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	b, ok := rt.breakers[worker]
	if ok {
		b.state = BreakerClosed
		b.fails = 0
	}
}

// breakerFailure records one hard failure (transport error or non-503
// 5xx — a 503 is backpressure, not breakage). A half-open probe failing
// re-opens immediately; a closed breaker opens at the threshold.
func (rt *Router) breakerFailure(worker string) {
	if rt.cfg.BreakerThreshold < 0 {
		return
	}
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	b, ok := rt.breakers[worker]
	if !ok {
		b = &breaker{}
		rt.breakers[worker] = b
	}
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= rt.cfg.BreakerThreshold) {
		b.state = BreakerOpen
		b.openedUntil = time.Now().Add(rt.cfg.BreakerCooldown)
		rt.breakerOpens.Add(1)
	}
}

// BreakerStates returns a point-in-time snapshot keyed by worker URL.
func (rt *Router) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, rt.Ring().Len())
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	for _, w := range rt.Ring().Nodes() {
		if b, ok := rt.breakers[w]; ok {
			out[w] = b.state
		} else {
			out[w] = BreakerClosed
		}
	}
	return out
}

// --- health checking ---

func (rt *Router) healthLoop() {
	rt.probeAll()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, w := range rt.Ring().Nodes() {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			rt.health.Store(w, rt.probe(w))
		}(w)
	}
	wg.Wait()
}

// probe classifies one worker. The probe client is short-fused: a health
// check racing a long analysis must not inherit the analysis timeout.
func (rt *Router) probe(worker string) WorkerState {
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get(worker + "/healthz?format=json")
	if err != nil {
		return WorkerDown
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return WorkerDown
	}
	if h.Status == "draining" || h.Saturated() {
		return WorkerSaturated
	}
	if resp.StatusCode != http.StatusOK {
		return WorkerDown
	}
	return WorkerUp
}

// WorkerStates returns a point-in-time snapshot, sorted by worker URL.
func (rt *Router) WorkerStates() map[string]WorkerState {
	ring := rt.Ring()
	out := make(map[string]WorkerState, ring.Len())
	for _, w := range ring.Nodes() {
		out[w] = WorkerUnknown
		if v, ok := rt.health.Load(w); ok {
			out[w] = v.(WorkerState)
		}
	}
	return out
}

func (rt *Router) stateOf(worker string) WorkerState {
	if v, ok := rt.health.Load(worker); ok {
		return v.(WorkerState)
	}
	return WorkerUnknown
}

// --- routing core ---

// routeKey computes the content address a worker will cache this item
// under: the same options overlay the daemon applies, over canary's
// defaults, then SubmissionKey. A worker whose base options differ
// beyond what the key ignores (Workers) costs cache locality, never
// correctness.
func (rt *Router) routeKey(src string, patch *api.OptionsPatch, itemPatch *api.OptionsPatch) cache.Key {
	opt := patch.Apply(canary.DefaultOptions())
	opt = itemPatch.Apply(opt)
	return canary.SubmissionKey(src, opt)
}

// candidates returns the failover order for key: ready workers in ring
// order, then down ones (not dropped: when everything looks down,
// trying anyway beats refusing — the checker may simply be stale), then
// breaker-blocked ones dead last (recent hard evidence, touched only
// when there is nothing else).
func (rt *Router) candidates(key cache.Key) []string {
	reps := rt.Ring().Replicas(key)
	ready := make([]string, 0, len(reps))
	var down, blocked []string
	for _, w := range reps {
		switch {
		case rt.breakerBlocked(w):
			blocked = append(blocked, w)
		case rt.stateOf(w) == WorkerDown:
			down = append(down, w)
		default:
			ready = append(ready, w)
		}
	}
	return append(append(ready, down...), blocked...)
}

var errNoWorkers = errors.New("fleet: no worker answered")

// backoff sleeps one jittered failover delay (base ± 50%), so a burst
// of failovers does not re-slam the next worker in lockstep.
func (rt *Router) backoff(ctx context.Context) error {
	rt.rngMu.Lock()
	jitter := time.Duration(rt.rng.Int63n(int64(rt.cfg.RetryBackoff)))
	rt.rngMu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(rt.cfg.RetryBackoff/2 + jitter):
		return nil
	}
}

// observeLatency feeds the hedge sampler with one successful forward.
func (rt *Router) observeLatency(d time.Duration) {
	rt.latMu.Lock()
	rt.lats[rt.latIdx] = d
	rt.latIdx = (rt.latIdx + 1) % len(rt.lats)
	if rt.latN < len(rt.lats) {
		rt.latN++
	}
	rt.latMu.Unlock()
}

// hedgeDelay returns how long a forward may be in flight before a hedge
// fires at the next candidate, or 0 when hedging is off (unconfigured,
// or not enough samples yet to know what "slow" means).
func (rt *Router) hedgeDelay() time.Duration {
	q := rt.cfg.HedgeQuantile
	if q <= 0 {
		return 0
	}
	rt.latMu.Lock()
	n := rt.latN
	if n < 8 {
		rt.latMu.Unlock()
		return 0
	}
	sample := make([]time.Duration, n)
	copy(sample, rt.lats[:n])
	rt.latMu.Unlock()
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	d := sample[idx]
	if d < rt.cfg.HedgeMinDelay {
		d = rt.cfg.HedgeMinDelay
	}
	return d
}

type attemptResult struct {
	worker string
	hedged bool
	code   int
	body   []byte
	err    error
}

// forward offers one single-form submission body to key's candidate
// workers: the owner first, failover down the ring on hard errors with
// jittered backoff, and — once the call has been in flight past the
// hedge delay — a concurrent hedge at the next candidate, first useful
// answer winning. Safe to race: results are content-addressed, and both
// the router and the workers dedup identical in-flight submissions, so
// a hedge can only waste one upstream call, never change bytes. Every
// attempt outcome feeds the worker's circuit breaker. A worker's HTTP
// answer — any status — ends the walk except 503 (queue full /
// draining, backpressure not breakage) and other 5xx, which push on.
func (rt *Router) forward(ctx context.Context, key cache.Key, body []byte) (int, []byte, error) {
	cands := rt.candidates(key)
	if len(cands) > rt.cfg.MaxAttempts {
		cands = cands[:rt.cfg.MaxAttempts]
	}
	if len(cands) == 0 {
		rt.exhausted.Add(1)
		return 0, nil, errNoWorkers
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, len(cands))
	next := 0
	launch := func(hedged bool) bool {
		if next >= len(cands) {
			return false
		}
		w := cands[next]
		next++
		rt.breakerAttempt(w)
		go func() {
			code, respBody, err := rt.post(actx, w, body)
			results <- attemptResult{worker: w, hedged: hedged, code: code, body: respBody, err: err}
		}()
		return true
	}
	launch(false)
	pending := 1
	var hedgeC <-chan time.Time
	if d := rt.hedgeDelay(); d > 0 && len(cands) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}
	start := time.Now()
	var lastErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				pending++
				rt.hedges.Add(1)
			}
		case r := <-results:
			pending--
			hardFailure := r.err != nil || (r.code >= 500 && r.code != http.StatusServiceUnavailable)
			retryable := r.err != nil || r.code == http.StatusServiceUnavailable || r.code >= 500
			if !retryable {
				rt.breakerSuccess(r.worker)
				rt.observeLatency(time.Since(start))
				if r.hedged {
					rt.hedgeWins.Add(1)
				}
				return r.code, r.body, nil
			}
			rt.upstreamErrs.Add(1)
			if r.err != nil {
				lastErr = fmt.Errorf("worker %s: %w", r.worker, r.err)
			} else {
				lastErr = fmt.Errorf("worker %s: status %d", r.worker, r.code)
			}
			if hardFailure {
				rt.breakerFailure(r.worker)
			}
			// Sequential failover only once nothing is in flight; a live
			// hedge is already covering this key.
			if pending == 0 && next < len(cands) {
				rt.failovers.Add(1)
				if err := rt.backoff(ctx); err != nil {
					return 0, nil, err
				}
				launch(false)
				pending++
			}
		}
	}
	rt.exhausted.Add(1)
	if lastErr == nil {
		lastErr = errNoWorkers
	}
	return 0, nil, lastErr
}

func (rt *Router) post(ctx context.Context, worker string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		worker+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rt.forwards.Add(1)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerEntryBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// forwardDeduped wraps forward with the router-side in-flight table:
// identical concurrent submissions (same SubmissionKey) share one
// upstream call and all read its response. Only terminal responses are
// shared; a failed walk is not cached, so a follower retrying later
// starts fresh.
func (rt *Router) forwardDeduped(ctx context.Context, key cache.Key, body []byte) (int, []byte, error) {
	rt.inflight.Lock()
	if c, ok := rt.inflightByKey[key]; ok {
		rt.inflight.Unlock()
		rt.deduped.Add(1)
		select {
		case <-c.done:
			return c.code, c.body, nil
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	c := &inflightCall{done: make(chan struct{})}
	rt.inflightByKey[key] = c
	rt.inflight.Unlock()

	code, respBody, err := rt.forward(ctx, key, body)

	rt.inflight.Lock()
	delete(rt.inflightByKey, key)
	rt.inflight.Unlock()
	if err != nil {
		// Leave the call unshared: followers blocked on done would have no
		// response to read. They re-enter and route for themselves.
		close(c.done)
		return 0, nil, err
	}
	c.code, c.body = code, respBody
	close(c.done)
	return code, respBody, nil
}

// A follower that woke on done with a zero code means the leader failed
// after we joined; detect and re-route.
func (rt *Router) forwardShared(ctx context.Context, key cache.Key, body []byte) (int, []byte, error) {
	for tries := 0; tries < 2; tries++ {
		code, respBody, err := rt.forwardDeduped(ctx, key, body)
		if err != nil {
			return 0, nil, err
		}
		if code != 0 {
			return code, respBody, nil
		}
	}
	return 0, nil, errNoWorkers
}

// --- HTTP surface ---

// Handler returns the router's HTTP API — the same /v1/analyze contract
// canaryd serves (single and batch forms), plus the router's own
// /healthz and /metrics, and (with Join) the membership gossip
// endpoint. Async submissions are refused: a job ID is meaningful only
// on the worker that issued it, and a stateless router keeps no
// affinity to resolve one.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	if rt.agent != nil {
		mux.HandleFunc("/v1/gossip", rt.agent.ServeGossip)
	}
	return mux
}

func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeJSONError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	req, err := api.ParseAnalyzeRequest(body)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Async {
		writeJSONError(w, http.StatusBadRequest,
			"async submissions are not routable; submit directly to a worker")
		return
	}
	if rt.Ring().Len() == 0 {
		// Dynamic membership and no workers known (yet): refuse with a
		// backoff hint rather than hanging or panicking.
		writeJSONError(w, http.StatusServiceUnavailable, "no fleet members known")
		return
	}
	if len(req.Items) > 0 {
		rt.handleBatch(w, r, req)
		return
	}

	rt.requests.Add(1)
	rt.items.Add(1)
	key := rt.routeKey(req.Source, req.Options, nil)
	code, respBody, err := rt.forwardShared(r.Context(), key, body)
	if err != nil {
		writeJSONError(w, http.StatusBadGateway, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(respBody)
}

// handleBatch fans a batch out to the owners of its items: items are
// grouped by owner, one upstream batch POST per worker, per-item
// responses reassembled in request order. A worker whose whole call
// fails gets its items re-routed individually through the failover walk,
// so one down worker degrades to slower placement, not lost items.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request, req *api.AnalyzeRequest) {
	rt.batchRequests.Add(1)
	rt.items.Add(uint64(len(req.Items)))

	type routedItem struct {
		idx int
		key cache.Key
	}
	groups := make(map[string][]routedItem)
	for i := range req.Items {
		it := &req.Items[i]
		key := rt.routeKey(it.Source, req.Options, it.Options)
		owner := ""
		if cands := rt.candidates(key); len(cands) > 0 {
			owner = cands[0]
		}
		groups[owner] = append(groups[owner], routedItem{idx: i, key: key})
	}

	resp := api.BatchResponse{Items: make([]api.JobResponse, len(req.Items))}
	var wg sync.WaitGroup
	for owner, group := range groups {
		wg.Add(1)
		go func(owner string, group []routedItem) {
			defer wg.Done()
			sub := api.AnalyzeRequest{
				Options: req.Options,
				Items:   make([]api.AnalyzeItem, len(group)),
			}
			for j, g := range group {
				sub.Items[j] = req.Items[g.idx]
			}
			subBody, err := json.Marshal(sub)
			if err == nil && owner != "" {
				code, respBody, postErr := rt.post(r.Context(), owner, subBody)
				if postErr == nil && code == http.StatusOK {
					var br api.BatchResponse
					if json.Unmarshal(respBody, &br) == nil && len(br.Items) == len(group) {
						for j, g := range group {
							resp.Items[g.idx] = br.Items[j]
						}
						return
					}
				}
				if postErr != nil || code >= 500 {
					rt.upstreamErrs.Add(1)
				}
			}
			// The grouped call failed as a whole (or no owner was known):
			// re-route each item alone so the failover walk can place it.
			for j, g := range group {
				resp.Items[g.idx] = rt.routeSingle(r.Context(), g.key, sub.Items[j], req.Options)
			}
		}(owner, group)
	}
	wg.Wait()
	resp.Tally()
	writeJSONBody(w, http.StatusOK, resp)
}

// routeSingle re-routes one batch item through the deduped failover walk
// as a batch of one — the batch form keeps the envelope/item options
// layering intact, so the worker lands it under the same content address
// the router computed.
func (rt *Router) routeSingle(ctx context.Context, key cache.Key, it api.AnalyzeItem, patch *api.OptionsPatch) api.JobResponse {
	body, err := json.Marshal(api.AnalyzeRequest{
		Options: patch,
		Items:   []api.AnalyzeItem{it},
	})
	if err != nil {
		return api.JobResponse{Status: "failed", Error: err.Error()}
	}
	code, respBody, err := rt.forwardShared(ctx, key, body)
	if err != nil {
		return api.JobResponse{Status: "failed", Error: err.Error()}
	}
	var br api.BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil || len(br.Items) != 1 {
		return api.JobResponse{Status: "failed",
			Error: fmt.Sprintf("unparseable worker response (status %d)", code)}
	}
	return br.Items[0]
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := rt.WorkerStates()
	up := 0
	for _, s := range states {
		if s != WorkerDown {
			up++
		}
	}
	status := "ok"
	code := http.StatusOK
	if up == 0 {
		status = "no-workers"
		code = http.StatusServiceUnavailable
	}
	if r.URL.Query().Get("format") == "json" {
		type workerReport struct {
			URL     string `json:"url"`
			State   string `json:"state"`
			Breaker string `json:"breaker"`
		}
		report := struct {
			Status  string         `json:"status"`
			Members int            `json:"members,omitempty"`
			Workers []workerReport `json:"workers"`
		}{Status: status}
		if rt.agent != nil {
			report.Members = len(membership.AliveIDs(rt.agent.Members(), ""))
		}
		breakers := rt.BreakerStates()
		for _, u := range rt.Ring().Nodes() {
			report.Workers = append(report.Workers, workerReport{
				URL: u, State: states[u].String(), Breaker: breakers[u].String(),
			})
		}
		writeJSONBody(w, code, report)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "router_requests_total %d\n", rt.requests.Load())
	fmt.Fprintf(w, "router_batch_requests_total %d\n", rt.batchRequests.Load())
	fmt.Fprintf(w, "router_items_total %d\n", rt.items.Load())
	fmt.Fprintf(w, "router_forwards_total %d\n", rt.forwards.Load())
	fmt.Fprintf(w, "router_failovers_total %d\n", rt.failovers.Load())
	fmt.Fprintf(w, "router_upstream_errors_total %d\n", rt.upstreamErrs.Load())
	fmt.Fprintf(w, "router_deduped_total %d\n", rt.deduped.Load())
	fmt.Fprintf(w, "router_exhausted_total %d\n", rt.exhausted.Load())
	fmt.Fprintf(w, "router_hedges_total %d\n", rt.hedges.Load())
	fmt.Fprintf(w, "router_hedge_wins_total %d\n", rt.hedgeWins.Load())
	fmt.Fprintf(w, "router_breaker_opens_total %d\n", rt.breakerOpens.Load())
	fmt.Fprintf(w, "router_workers %d\n", rt.Ring().Len())
	states := rt.WorkerStates()
	breakers := rt.BreakerStates()
	workers := rt.Ring().Nodes()
	sort.Strings(workers)
	byState := map[WorkerState]int{}
	for _, u := range workers {
		s := states[u]
		byState[s]++
		upVal := 0
		if s == WorkerUp || s == WorkerUnknown {
			upVal = 1
		}
		fmt.Fprintf(w, "router_worker_up{worker=%q} %d\n", u, upVal)
		fmt.Fprintf(w, "router_breaker_state{worker=%q} %d\n", u, int(breakers[u]))
	}
	fmt.Fprintf(w, "router_workers_up %d\n", byState[WorkerUp])
	fmt.Fprintf(w, "router_workers_saturated %d\n", byState[WorkerSaturated])
	fmt.Fprintf(w, "router_workers_down %d\n", byState[WorkerDown])
	if rt.agent != nil {
		ms := rt.agent.Stats()
		fmt.Fprintf(w, "router_gossip_rounds_total %d\n", ms.Rounds)
		fmt.Fprintf(w, "router_gossip_send_errors_total %d\n", ms.SendErrors)
		fmt.Fprintf(w, "router_members_alive %d\n", ms.Alive)
		fmt.Fprintf(w, "router_members_suspect %d\n", ms.Suspect)
		fmt.Fprintf(w, "router_members_dead %d\n", ms.Dead)
	}
}

// RouterStats is a point-in-time snapshot of the router counters, the
// router_*_total series of /metrics; the bench harness reads it from a
// scrape of a spawned router.
type RouterStats struct {
	Requests      uint64 `json:"requests"`
	BatchRequests uint64 `json:"batch_requests"`
	Items         uint64 `json:"items"`
	Forwards      uint64 `json:"forwards"`
	Failovers     uint64 `json:"failovers"`
	UpstreamErrs  uint64 `json:"upstream_errors"`
	Deduped       uint64 `json:"deduped"`
	Exhausted     uint64 `json:"exhausted"`
	Hedges        uint64 `json:"hedges"`
	HedgeWins     uint64 `json:"hedge_wins"`
	BreakerOpens  uint64 `json:"breaker_opens"`
}

// Stats returns the cumulative counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Requests:      rt.requests.Load(),
		BatchRequests: rt.batchRequests.Load(),
		Items:         rt.items.Load(),
		Forwards:      rt.forwards.Load(),
		Failovers:     rt.failovers.Load(),
		UpstreamErrs:  rt.upstreamErrs.Load(),
		Deduped:       rt.deduped.Load(),
		Exhausted:     rt.exhausted.Load(),
		Hedges:        rt.hedges.Load(),
		HedgeWins:     rt.hedgeWins.Load(),
		BreakerOpens:  rt.breakerOpens.Load(),
	}
}

func writeJSONBody(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// writeJSONError emits the router's typed JSON error envelope. 502/503
// responses carry a Retry-After hint, mirroring canaryd's queue-full
// path, so clients back off instead of hammering a struggling fleet.
func writeJSONError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	if status == http.StatusBadGateway || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSONBody(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

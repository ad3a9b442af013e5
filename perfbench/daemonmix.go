package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/server"
)

// daemonClients is the closed loop's client count: one per CPU of the
// 2-vCPU machine the benchmark is sized for, each waiting for its reply
// before sending the next request, as CI jobs and editors do.
const daemonClients = 2

// requestBlock is the class mix: per ten requests, seven exact repeats
// (result-cache hits), two near-duplicates (one filler helper changed:
// summary-store hits, full analysis) and one fresh program (all miss),
// shuffled per block. The shares are assumed, not taken from measured
// daemon traffic: the cache path is the majority so that latency_p50_ms
// is its tail, well clear of the analysis classes, and steady from run
// to run.
var requestBlock = []string{
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
	"near", "near", "fresh",
}

// daemonMix is an in-process canaryd with its default configuration,
// served over a loopback listener and driven by daemonClients clients.
type daemonMix struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	repeats, fresh []*request

	mu        sync.Mutex // guards the dispenser below
	rng       *rand.Rand
	block     []string
	nextNear  int
	nextFresh int

	// Replay state and observations of a traced run.
	rep          *replica
	replayFailed int
	walls        map[string][]time.Duration
	queueFull    int
	depthMax     int
	hitRatio     float64
}

// request is one pre-encoded submission with its ground truth.
type request struct {
	class string
	body  []byte
	lines int
	want  []string
	// first is the result of the request's first submission; a repeat
	// must return exactly these bytes.
	first []byte
	// A near-duplicate of this program is body with the first filler
	// helper's "b" at nearAt replaced by a constant unique to the request.
	nearAt int
}

func newRequest(class, src string, want []string) (*request, error) {
	body, err := json.Marshal(api.AnalyzeRequest{Source: src})
	if err != nil {
		return nil, err
	}
	return &request{class: class, body: body, lines: lineCount(src), want: want}, nil
}

func newDaemonMix(cfg config) (runner, error) {
	sz := cfg.size
	w := &daemonMix{
		rng:    rand.New(rand.NewSource(cfg.inputSeed(0))),
		walls:  make(map[string][]time.Duration),
		served: make(chan error, 1),
	}
	// Input pools: the repeat programs (also the near-duplicates' bases)
	// and the fresh programs, each generated from a seed no other program
	// uses. The pools hold encoded request bodies only.
	for i := 0; i < sz.daemonRepeat; i++ {
		s := newSubject(sweepSpec(sz.daemonLines, cfg.inputSeed(i)))
		r, err := newRequest("repeat", s.src, s.want)
		if err != nil {
			return nil, err
		}
		if r.nearAt = bytes.Index(r.body, []byte(nearStmt)); r.nearAt < 0 {
			return nil, errors.New("daemon-mix: program has no filler helper to change")
		}
		r.nearAt += len("  t1 = a + ")
		w.repeats = append(w.repeats, r)
	}
	fresh := int(math.Ceil(float64(sz.daemonFreshPerSecond) * cfg.seconds.Seconds()))
	for i := 0; i < fresh; i++ {
		s := newSubject(sweepSpec(sz.daemonLines, cfg.inputSeed(sz.daemonRepeat+i)))
		r, err := newRequest("fresh", s.src, s.want)
		if err != nil {
			return nil, err
		}
		w.fresh = append(w.fresh, r)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if w.srv, err = server.New(server.Config{}); err != nil {
		ln.Close()
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/analyze"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}}

	// Warm-up and priming: submit every repeat program once; its result
	// bytes become the reference its repeats must reproduce.
	for _, r := range w.repeats {
		status, jr, err := w.post(r.body)
		if err != nil || status != http.StatusOK || !resultSourcesMatch(jr.Result, r.want) {
			w.close()
			return nil, fmt.Errorf("daemon-mix: priming request failed (status %d): %v", status, err)
		}
		r.first = jr.Result
	}
	return w, nil
}

// nearStmt is the first statement of every filler helper, as it appears in
// an encoded request body.
const nearStmt = `  t1 = a + b;\n`

// nearDuplicate is the request for base with its first filler helper
// changed by the constant k: one function differs, so every other
// function's summary key stays the same. Splicing the constant into the
// encoded body is a copy of a few kilobytes, three orders of magnitude
// below the request it makes, and keeps the run from holding a pool of
// thousands of near-identical programs.
func nearDuplicate(base *request, k int) *request {
	body := make([]byte, 0, len(base.body)+8)
	body = append(body, base.body[:base.nearAt]...)
	body = strconv.AppendInt(body, int64(k), 10)
	body = append(body, base.body[base.nearAt+1:]...)
	return &request{class: "near", body: body, lines: base.lines, want: base.want}
}

// post submits one pre-encoded request and decodes the reply.
func (w *daemonMix) post(body []byte) (int, api.JobResponse, error) {
	var jr api.JobResponse
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, jr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, jr, err
	}
	if err := json.Unmarshal(data, &jr); err != nil {
		return resp.StatusCode, jr, err
	}
	return resp.StatusCode, jr, nil
}

// resultSourcesMatch decodes a result's reports and compares their source
// functions with want.
func resultSourcesMatch(raw []byte, want []string) bool {
	var res canary.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return false
	}
	return sameSources(reportSources(res.Reports), want)
}

// nextRequest hands out the next request of the seeded class sequence;
// false once the pre-generated fresh pool is used up.
func (w *daemonMix) nextRequest() (*request, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.block) == 0 {
		w.block = append([]string(nil), requestBlock...)
		w.rng.Shuffle(len(w.block), func(i, j int) { w.block[i], w.block[j] = w.block[j], w.block[i] })
	}
	class := w.block[0]
	w.block = w.block[1:]
	switch class {
	case "repeat":
		return w.repeats[w.rng.Intn(len(w.repeats))], true
	case "near":
		w.nextNear++
		return nearDuplicate(w.repeats[w.rng.Intn(len(w.repeats))], w.nextNear), true
	default:
		if w.nextFresh == len(w.fresh) {
			return nil, false
		}
		w.nextFresh++
		return w.fresh[w.nextFresh-1], true
	}
}

// done is one finished request of a traced phase, kept for the replay.
type done struct {
	req *request
	op  spanID
}

func (w *daemonMix) run(until time.Time, tr *tracer) []opRecord {
	h0, m0, _ := w.srv.CacheStats()
	stopDepth := w.sampleQueueDepth(tr)
	recs := make([][]opRecord, daemonClients)
	dones := make([][]done, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				req, ok := w.nextRequest()
				if !ok {
					return
				}
				op := tr.start("server.request", 0)
				t0 := time.Now()
				status, jr, err := w.post(req.body)
				wall := time.Since(t0)
				tr.end(op)
				ok = err == nil && status == http.StatusOK && jr.Status == string(server.JobDone)
				if ok && req.class == "repeat" {
					ok = bytes.Equal(jr.Result, req.first)
				} else if ok {
					ok = resultSourcesMatch(jr.Result, req.want)
				}
				if !ok {
					fmt.Fprintf(os.Stderr, "daemon-mix %s request: status %d %s %v\n", req.class, status, jr.Error, err)
				}
				lines := req.lines
				if req.class == "repeat" {
					lines = 0 // served from the result cache, nothing analyzed
				}
				recs[c] = append(recs[c], opRecord{class: req.class, wall: wall, lines: lines, full: req.class == "fresh", ok: ok})
				opsDone.Add(1)
				if tr != nil {
					dones[c] = append(dones[c], done{req, op})
				}
				if tr != nil && status == http.StatusServiceUnavailable {
					w.mu.Lock()
					w.queueFull++
					w.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	stopDepth()
	var all []opRecord
	for c := range recs {
		all = append(all, recs[c]...)
	}
	if tr == nil {
		return all
	}

	h1, m1, _ := w.srv.CacheStats()
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		w.hitRatio = float64(h1-h0) / float64(n)
	}
	for _, r := range all {
		w.walls[r.class] = append(w.walls[r.class], r.wall)
	}
	// Replays run after the load phase, so they do not compete with the
	// clients for the CPUs. The replica's stores are first warmed with the
	// programs the daemon's session saw during priming.
	if w.rep == nil {
		w.rep = newReplica()
		for _, r := range w.repeats {
			if !w.replay(nil, 0, r, true) {
				w.replayFailed++
			}
		}
	}
	for c := range dones {
		for _, d := range dones[c] {
			if !w.replay(tr, d.op, d.req, d.req.class != "repeat") {
				w.replayFailed++
			}
		}
	}
	return all
}

// sampleQueueDepth polls the daemon's queue while a traced phase runs and
// returns the function that stops it.
func (w *daemonMix) sampleQueueDepth(tr *tracer) func() {
	if tr == nil {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if d := w.srv.QueueDepth(); d > w.depthMax {
					w.depthMax = d
				}
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// replay re-runs one request through the layers as the daemon does:
// canonicalize for the submission key and, for a request that missed the
// result cache, parse, key and analyze over warm stores.
func (w *daemonMix) replay(tr *tracer, op spanID, r *request, analyze bool) bool {
	var req api.AnalyzeRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return false
	}
	src := req.Source
	root := tr.start("replay", op)
	defer tr.end(root)
	canonLayer(tr, root, src)
	if !analyze {
		return true
	}
	ast, err := parseLayer(tr, root, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemon-mix replay: %v\n", err)
		return false
	}
	keys := keysLayer(tr, root, ast)
	fns, err := analyzeLayers(tr, root, ast, keys, w.rep, canary.DefaultOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemon-mix replay: %v\n", err)
		return false
	}
	return sameSources(fns, r.want)
}

// verify reports the replays whose findings missed the seeded set.
func (w *daemonMix) verify() int { return w.replayFailed }

func (w *daemonMix) layerMetrics(m map[string]metric) {
	for _, class := range []string{"repeat", "near", "fresh"} {
		m["server.request_"+class+"_ms"] = metric{ms(median(w.walls[class])), "ms"}
	}
	m["cache.result_hit_ratio"] = metric{w.hitRatio, "ratio"}
	ops := 0
	for _, walls := range w.walls {
		ops += len(walls)
	}
	// Per request, so that a faster daemon does not read as more refusals.
	m["server.queue_full"] = metric{float64(w.queueFull) / float64(max(ops, 1)), "count/op"}
	m["server.queue_depth_max"] = metric{float64(w.depthMax), "count"}
}

// close stops the HTTP server and the daemon and waits for both.
func (w *daemonMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "daemon-mix: stopping the listener: %v\n", err)
	}
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "daemon-mix: serve: %v\n", err)
	}
	if err := w.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "daemon-mix: stopping the daemon: %v\n", err)
	}
	w.client.CloseIdleConnections()
}

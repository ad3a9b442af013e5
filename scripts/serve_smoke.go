//go:build ignore

// serve_smoke.go is the `make serve-smoke` gate: an end-to-end exercise of
// the real canaryd binary over real HTTP. It builds canaryd and canary,
// starts the daemon on a random port, submits examples/service/program.cn,
// asserts the daemon's reports equal the CLI's on the same file, replays
// the submission to prove it is served from the content-addressed cache,
// checks /healthz and /metrics, and SIGTERMs the daemon expecting a clean
// drain and exit 0.
//
// Run from the repository root: go run scripts/serve_smoke.go
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"time"

	"canary/internal/api"
	"canary/internal/e2e"
	"canary/internal/pipeline"
)

const examplePath = "examples/service/program.cn"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "canary-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	daemonBin, err := e2e.Build(tmp, "./cmd/canaryd")
	if err != nil {
		return err
	}
	cliBin, err := e2e.Build(tmp, "./cmd/canary")
	if err != nil {
		return err
	}

	// Start the daemon on a random port and scrape the announced address.
	// The small request-body cap exercises the 413 path cheaply below.
	daemon, err := e2e.Start(exec.Command(daemonBin, "-addr", "127.0.0.1:0", "-max-request-bytes", "65536"),
		"canaryd listening on ")
	if err != nil {
		return err
	}
	defer daemon.Kill()
	base := daemon.URL()
	fmt.Println("serve-smoke: daemon at", base)

	if body, err := get(base + "/healthz"); err != nil {
		return err
	} else if strings.TrimSpace(body) != "ok" {
		return fmt.Errorf("/healthz = %q, want ok", body)
	}

	// Submit the example synchronously.
	src, err := os.ReadFile(examplePath)
	if err != nil {
		return err
	}
	first, err := analyze(base, string(src))
	if err != nil {
		return err
	}
	if first.Status != "done" {
		return fmt.Errorf("cold submission status %q (error %q)", first.Status, first.Error)
	}
	if first.Cached {
		return fmt.Errorf("cold submission claims to be cached")
	}

	// The daemon's reports must equal the CLI's on the same file.
	cliOut, err := exec.Command(cliBin, "-json", "-fail-on-report=false", examplePath).Output()
	if err != nil {
		return fmt.Errorf("canary CLI: %v", err)
	}
	daemonReports, err := reportsOf(first.Result)
	if err != nil {
		return err
	}
	cliReports, err := reportsOf(cliOut)
	if err != nil {
		return err
	}
	list, ok := daemonReports.([]any)
	if !ok || len(list) == 0 {
		return fmt.Errorf("the example produced no report")
	}
	if !reflect.DeepEqual(daemonReports, cliReports) {
		return fmt.Errorf("daemon and CLI reports differ:\ndaemon: %v\ncli: %v", daemonReports, cliReports)
	}
	fmt.Printf("serve-smoke: %d report(s), daemon == CLI\n", len(list))

	// A repeat submission must be served from the content-addressed store,
	// byte-identical to the cold run.
	second, err := analyze(base, string(src))
	if err != nil {
		return err
	}
	if !second.Cached {
		return fmt.Errorf("repeat submission not served from cache")
	}
	if !bytes.Equal(second.Result, first.Result) {
		return fmt.Errorf("cached result differs from the cold run")
	}

	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	// Every pipeline registry stage must expose a latency histogram fed by
	// the cold run's trace spans (the warm repeat is cache-served and does
	// not re-observe).
	stageWants := make([]string, 0, 8)
	for _, stage := range pipeline.StageNames() {
		stageWants = append(stageWants,
			fmt.Sprintf("canaryd_stage_latency_seconds_count{stage=%q} 1", stage))
	}
	for _, want := range append(stageWants,
		"canaryd_jobs_accepted_total 2",
		"canaryd_jobs_completed_total 2",
		"canaryd_jobs_cache_served_total 1",
		"canaryd_result_cache_hits_total 1",
		"canaryd_stage_latency_seconds_count{stage=\"total\"} 1",
		"canaryd_budget_exhausted_total{stage=\"fixpoint\"} 0",
		"canaryd_budget_exhausted_total{stage=\"search\"} 0",
		"canaryd_budget_exhausted_total{stage=\"formula\"} 0",
		"canaryd_panics_recovered_total 0",
		"canaryd_quarantined_summaries_total 0",
	) {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	fmt.Println("serve-smoke: cache replay and metrics ok")

	// An oversized body must be refused with 413 (the daemon was started
	// with a 64 KiB cap) and a JSON error, without counting as a job.
	big, err := json.Marshal(map[string]any{"source": strings.Repeat("x", 128<<10)})
	if err != nil {
		return err
	}
	resp, buf, err := e2e.Post(base+"/v1/analyze", big)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		return fmt.Errorf("oversized body: got %s, want 413 (%s)", resp.Status, buf)
	}
	var e413 struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(buf, &e413); err != nil || e413.Error == "" {
		return fmt.Errorf("413 body is not a JSON error: %s", buf)
	}
	fmt.Println("serve-smoke: 413 on oversized body ok")

	if err := backpressurePhase(daemonBin, string(src)); err != nil {
		return err
	}

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := daemon.Terminate(30 * time.Second); err != nil {
		return err
	}
	fmt.Println("serve-smoke: clean shutdown")
	return nil
}

// backpressurePhase proves the queue-full path: a daemon with one worker,
// a one-slot queue, and an injected 500ms dequeue stall must answer the
// overflow submission with 503 + Retry-After, and the jittered retry
// helper must then get the same submission through.
func backpressurePhase(daemonBin, src string) error {
	cmd := exec.Command(daemonBin, "-addr", "127.0.0.1:0",
		"-max-concurrent", "1", "-queue-depth", "1")
	cmd.Env = append(os.Environ(), "CANARY_FAILPOINTS=job-dequeue=sleep:500ms")
	daemon, err := e2e.Start(cmd, "canaryd listening on ")
	if err != nil {
		return err
	}
	defer daemon.Kill()
	base := daemon.URL()

	// Distinct max_dfs_steps values give every submission a distinct
	// content address, so none is answered from the result cache.
	body := func(i int) []byte {
		b, _ := json.Marshal(map[string]any{
			"source": src,
			"async":  true,
			"options": map[string]any{
				"max_dfs_steps": 1 << 20,
				"unroll_depth":  2 + i%2,
				"inline_depth":  6 + i/2,
			},
		})
		return b
	}
	var rejected []byte
	for i := 0; i < 8; i++ {
		resp, buf, err := e2e.Post(base+"/v1/analyze", body(i))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				return fmt.Errorf("queue-full 503 without a Retry-After header")
			}
			rejected = body(i)
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("async submission %d: got %s (%s)", i, resp.Status, buf)
		}
	}
	if rejected == nil {
		return fmt.Errorf("no 503 after saturating a 1-worker/1-slot daemon")
	}
	resp, buf, err := postRetry(base+"/v1/analyze", rejected, 20)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("retry after 503: got %s (%s)", resp.Status, buf)
	}
	fmt.Println("serve-smoke: 503 backpressure + Retry-After retry ok")
	return nil
}

// postRetry is post with backpressure handling: on 503 it waits the
// server's Retry-After (or an exponential fallback) scaled by a random
// jitter in [0.5x, 1.5x) — so herds of rejected clients desynchronize —
// and tries again, up to maxAttempts.
func postRetry(url string, body []byte, maxAttempts int) (*http.Response, []byte, error) {
	backoff := 200 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, buf, err := e2e.Post(url, body)
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt == maxAttempts {
			return resp, buf, nil
		}
		wait := backoff
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		time.Sleep(wait/2 + time.Duration(rand.Int63n(int64(wait))))
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func analyze(base, src string) (api.JobResponse, error) {
	var jr api.JobResponse
	return jr, e2e.PostJSON(base+"/v1/analyze", map[string]any{"source": src}, &jr)
}

// reportsOf extracts the Reports field of a canary.Result encoding in a
// timing-insensitive form (the wall-clock stats fields are ignored).
func reportsOf(result []byte) (any, error) {
	var res struct {
		Reports any `json:"Reports"`
	}
	if err := json.Unmarshal(result, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return res.Reports, nil
}

func get(url string) (string, error) {
	resp, body, err := e2e.Get(url)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

//go:build ignore

// fleet_smoke.go is the `make fleet-smoke` gate: a real canary-router in
// front of two real canaryd workers, over real HTTP. It batch-submits a
// small corpus through the router, asserts every item's findings are
// byte-identical to a direct in-process library run, replays the batch to
// prove owner-local caching, then SIGKILLs one worker and submits again —
// including a fresh item whose shard owner is the dead worker — asserting
// the router fails over, nothing is lost, and the findings stay
// byte-identical. The router must end the run reporting the victim down
// and at least one failover, and must still drain cleanly on SIGTERM.
//
// Run from the repository root: go run scripts/fleet_smoke.go
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/e2e"
	"canary/internal/fleet"
)

const smokeItems = 6

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("fleet-smoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "canary-fleet-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	daemonBin, err := e2e.Build(tmp, "./cmd/canaryd")
	if err != nil {
		return err
	}
	routerBin, err := e2e.Build(tmp, "./cmd/canary-router")
	if err != nil {
		return err
	}

	// Two workers on random ports.
	var workers []*e2e.Proc
	defer func() {
		for _, p := range workers {
			p.Kill()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		p, err := e2e.Start(exec.Command(daemonBin, "-addr", "127.0.0.1:0"), "canaryd listening on ")
		if err != nil {
			return err
		}
		workers = append(workers, p)
		urls = append(urls, p.URL())
	}

	// The router in front of them, with a short failover backoff so the
	// post-kill batch settles quickly.
	router, err := e2e.Start(exec.Command(routerBin,
		"-addr", "127.0.0.1:0",
		"-workers", strings.Join(urls, ","),
		"-retry-backoff", "10ms",
		"-health-interval", "250ms"), "canary-router listening on ")
	if err != nil {
		return err
	}
	defer router.Kill()
	base := router.URL()
	fmt.Println("fleet-smoke: router at", base, "workers at", strings.Join(urls, ", "))

	if err := e2e.WaitWorkersUp(base, 2, 15*time.Second); err != nil {
		return err
	}

	// The corpus: the service example plus distinct padding per item, so
	// every item has its own content address and shard owner.
	example, err := os.ReadFile("examples/service/program.cn")
	if err != nil {
		return err
	}
	corpus := make([]api.AnalyzeItem, smokeItems)
	for i := range corpus {
		corpus[i] = api.AnalyzeItem{Source: padSource(string(example), i)}
	}

	// Direct baseline: the library, in this process. The determinism
	// contract makes these findings the only acceptable output no matter
	// which worker computes an item.
	direct := make([]string, smokeItems)
	for i, it := range corpus {
		if direct[i], err = e2e.DirectFindings(it.Source, canary.DefaultOptions()); err != nil {
			return fmt.Errorf("direct baseline item %d: %w", i, err)
		}
	}

	// Cold batch through the router: all items done, findings identical.
	cold, err := postBatch(base, corpus)
	if err != nil {
		return err
	}
	if cold.Failed != 0 || cold.Completed != smokeItems {
		return fmt.Errorf("cold batch: %d completed, %d failed", cold.Completed, cold.Failed)
	}
	if err := compareFindings(cold.Items, direct); err != nil {
		return fmt.Errorf("cold batch: %w", err)
	}
	fmt.Println("fleet-smoke: cold batch identical to direct run")

	// Warm replay: every item served from its shard owner's cache.
	warm, err := postBatch(base, corpus)
	if err != nil {
		return err
	}
	cached := 0
	for _, it := range warm.Items {
		if it.Cached {
			cached++
		}
	}
	if cached != smokeItems {
		return fmt.Errorf("warm batch: %d/%d items cache-served", cached, smokeItems)
	}
	if err := compareFindings(warm.Items, direct); err != nil {
		return fmt.Errorf("warm batch: %w", err)
	}
	fmt.Println("fleet-smoke: warm batch fully cache-served")

	// Kill the worker that owns item 0, then resubmit the corpus plus a
	// fresh item the victim also owns: the cached items owned by the
	// victim and the fresh item must all fail over to the survivor and
	// come back byte-identical.
	ring := fleet.NewRing(urls)
	victimURL := ring.Owner(canary.SubmissionKey(corpus[0].Source, canary.DefaultOptions()))
	var victim *e2e.Proc
	for i, u := range urls {
		if u == victimURL {
			victim = workers[i]
		}
	}
	fresh := freshVictimItem(string(example), ring, victimURL)
	freshDirect, err := e2e.DirectFindings(fresh.Source, canary.DefaultOptions())
	if err != nil {
		return err
	}
	victim.Kill()
	fmt.Println("fleet-smoke: killed worker", victimURL)

	after, err := postBatch(base, append(append([]api.AnalyzeItem{}, corpus...), fresh))
	if err != nil {
		return err
	}
	if after.Failed != 0 || after.Completed != smokeItems+1 {
		return fmt.Errorf("post-kill batch: %d completed, %d failed", after.Completed, after.Failed)
	}
	if err := compareFindings(after.Items, append(append([]string{}, direct...), freshDirect)); err != nil {
		return fmt.Errorf("post-kill batch: %w", err)
	}
	fmt.Println("fleet-smoke: post-kill batch identical (failover transparent)")

	// The router must have failed over at least once and, once the prober
	// catches up, report the victim down.
	failovers := e2e.Counter(base, "router_failovers_total")
	if failovers == 0 {
		return fmt.Errorf("router_failovers_total is 0 after killing a worker")
	}
	if err := waitWorkerState(base, victimURL, "down"); err != nil {
		return err
	}
	fmt.Printf("fleet-smoke: %d failover(s), victim reported down\n", failovers)

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := router.Terminate(30 * time.Second); err != nil {
		return err
	}
	fmt.Println("fleet-smoke: clean router shutdown")
	return nil
}

// padSource gives the shared example a distinct content address per item.
// The padding shape matches the fleet bench corpus.
func padSource(base string, i int) string {
	return fmt.Sprintf("%s\nfunc fleetsmokepad%d() { p%d = malloc(); }", base, i, i)
}

// freshVictimItem searches pad variants until one's shard owner is the
// victim, so the post-kill batch provably contains work the dead worker
// owned.
func freshVictimItem(base string, ring *fleet.Ring, victimURL string) api.AnalyzeItem {
	for i := 0; ; i++ {
		src := fmt.Sprintf("%s\nfunc fleetsmokefresh%d() { q%d = malloc(); }", base, i, i)
		if ring.Owner(canary.SubmissionKey(src, canary.DefaultOptions())) == victimURL {
			return api.AnalyzeItem{Source: src}
		}
	}
}

// compareFindings checks every batch item's findings against the direct
// baseline, byte for byte.
func compareFindings(items []api.JobResponse, want []string) error {
	if len(items) != len(want) {
		return fmt.Errorf("%d items in response, want %d", len(items), len(want))
	}
	for i, it := range items {
		if it.Status != "done" {
			return fmt.Errorf("item %d status %q (error %q)", i, it.Status, it.Error)
		}
		got, err := e2e.Findings(it.Result)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		if got != want[i] {
			return fmt.Errorf("item %d findings differ from the direct run:\nrouted: %s\ndirect: %s", i, got, want[i])
		}
	}
	return nil
}

// postBatch submits items as one batch request.
func postBatch(base string, items []api.AnalyzeItem) (*api.BatchResponse, error) {
	var br api.BatchResponse
	return &br, e2e.PostJSON(base+"/v1/analyze", api.AnalyzeRequest{Items: items}, &br)
}

// waitWorkerState polls the router until worker url reports state.
func waitWorkerState(base, url, state string) error {
	if _, ok := e2e.Poll(15*time.Second, 100*time.Millisecond, func() bool {
		return e2e.WorkerStates(base)[url] == state
	}); !ok {
		return fmt.Errorf("router never reported %s %s", url, state)
	}
	return nil
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/e2e"
	"canary/internal/fleet"
	"canary/internal/workload"
)

// FleetNodeRun is one fleet size's measurements: a cold corpus batch
// through the router, a warm repeat, and a peer-tier probe against a
// single worker that owns only its shard.
type FleetNodeRun struct {
	Nodes int `json:"nodes"`
	// Cold batch: every item computed somewhere in the fleet.
	ColdWall    time.Duration `json:"cold_wall_ns"`
	ItemsPerSec float64       `json:"items_per_sec"`
	// Warm batch: the same corpus again; every item should be served from
	// its owner's cache.
	WarmWall   time.Duration `json:"warm_wall_ns"`
	WarmCached int           `json:"warm_cached"`
	// The peer-tier probe sends the whole corpus directly to worker 0,
	// which owns only ~1/nodes of the keys: everything else must arrive
	// via peer fetches from the shard owners instead of being recomputed.
	ProbeCached     int    `json:"probe_cached"`
	ProbeOwned      int    `json:"probe_owned"`
	PeerFetches     uint64 `json:"peer_fetches"`
	PeerHits        uint64 `json:"peer_hits"`
	PeerJobsServed  uint64 `json:"peer_jobs_served"`
	AcceptedPerNode []int  `json:"accepted_per_node"`
	// Identical: every item's findings are byte-identical to the direct
	// in-process library run — routing must be invisible in the output.
	Identical bool              `json:"identical"`
	Router    fleet.RouterStats `json:"router"`
}

// FleetResult is the horizontal-scale experiment: the same corpus pushed
// through fleets of increasing size, plus a cross-node dedup burst.
type FleetResult struct {
	Lines int            `json:"lines"`
	Items int            `json:"items"`
	Runs  []FleetNodeRun `json:"runs"`
	// The dedup burst fires concurrent identical submissions at the
	// largest fleet's router: RouterDeduped counts the ones answered by
	// the router's in-flight table, WorkerCoalesced the ones that still
	// reached a worker and joined its live job there.
	DedupBurst      int    `json:"dedup_burst"`
	RouterDeduped   uint64 `json:"router_deduped"`
	WorkerCoalesced uint64 `json:"worker_coalesced"`
	// AllIdentical: every batch of every fleet size — cold, warm, and
	// after the failover kill — produced the same findings as the
	// direct library run, for every item.
	AllIdentical bool `json:"all_identical"`
	// AllWarmCached: every fleet size served its warm repeat entirely
	// from cache.
	AllWarmCached bool `json:"all_warm_cached"`
	// Failover is the post-SIGKILL phase of the largest fleet; nil when
	// that fleet has a single node.
	Failover *FleetFailover `json:"failover,omitempty"`
}

// FleetFailover is the failover phase: the worker owning the first
// corpus item is SIGKILLed, then the corpus plus a fresh item that
// worker owns is resubmitted through the router.
type FleetFailover struct {
	Items int `json:"items"`
	// Identical: every item completed byte-identical to the direct run.
	Identical bool `json:"identical"`
	// Failovers is the router's failover count during the phase.
	Failovers uint64 `json:"failovers"`
	// VictimDown: the router's health checker reported the victim down.
	VictimDown bool          `json:"victim_down"`
	Wall       time.Duration `json:"wall_ns"`
}

// fleetOptions is the analysis configuration of every fleet worker and
// of the direct baseline. Workers=1 keeps each analysis single-threaded
// so throughput scaling across node counts reflects the fleet, not the
// scheduler fighting itself over cores (the determinism contract keeps
// the output independent of it either way).
func fleetOptions() canary.Options {
	opt := canary.DefaultOptions()
	opt.Workers = 1
	return opt
}

// fleetWorker is one fleet or chaos worker: a real canaryd process,
// spawned by re-executing the bench binary as "canary-bench canaryd".
type fleetWorker struct {
	addr string
	// peers wires a static fleet: every member's URL, this one included.
	peers []string
	// join switches to gossip membership: the seed URLs, heartbeating
	// every gossip.
	join   []string
	gossip time.Duration
	// dir, when set, gives the worker a persistent disk store, so a
	// killed-and-restarted worker comes back warm.
	dir string
}

// args is the worker's canaryd command line: single-threaded analyses
// (fleetOptions), one job at a time, a queue that admits a whole batch,
// the address as identity, and — for the timeouts and capacities the
// experiments never chose — the server's own defaults rather than
// canaryd's flag defaults.
func (w fleetWorker) args() []string {
	self := "http://" + w.addr
	args := []string{
		"-addr", w.addr, "-node-id", w.addr,
		"-workers", "1", "-max-concurrent", "1", "-queue-depth", strconv.Itoa(api.MaxBatchItems),
		"-job-timeout", "0", "-cache-entries", "0", "-peer-timeout", "0",
		"-cache-dir", w.dir,
	}
	if len(w.join) > 0 {
		return append(args, "-join", strings.Join(w.join, ","), "-advertise", self,
			"-gossip-interval", w.gossip.String())
	}
	return append(args, "-peers", strings.Join(w.peers, ","), "-peer-self", self,
		"-gossip-interval", "0")
}

// start spawns the worker from exe, extraEnv entries (e.g. a
// CANARY_FAILPOINTS arming) appended to the inherited environment.
func (w fleetWorker) start(exe string, extraEnv ...string) (*e2e.Proc, error) {
	cmd := exec.Command(exe, append([]string{"canaryd"}, w.args()...)...)
	if len(extraEnv) > 0 {
		cmd.Env = append(os.Environ(), extraEnv...)
	}
	return e2e.Start(cmd, "canaryd listening on ")
}

// spawnFleet starts n workers wired to each other as static peers.
func spawnFleet(exe string, n int) ([]*e2e.Proc, func(), error) {
	addrs, err := e2e.FreeAddrs(n)
	if err != nil {
		return nil, nil, err
	}
	urls := make([]string, n)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	var procs []*e2e.Proc
	kill := func() {
		for _, p := range procs {
			p.Kill()
		}
	}
	for _, a := range addrs {
		p, err := fleetWorker{addr: a, peers: urls}.start(exe)
		if err != nil {
			kill()
			return nil, nil, err
		}
		procs = append(procs, p)
	}
	return procs, kill, nil
}

// routerArgs is the canary-router command line that reproduces cfg.
// Every field with a flag is spelled out, zeros included, so the
// router's own defaults — not the binary's flag defaults (hedging at
// the 0.9 quantile, for one) — fill whatever cfg leaves unset. Self is
// left to the router, which advertises the address it bound.
func routerArgs(cfg fleet.RouterConfig) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-workers", strings.Join(cfg.Workers, ","),
		"-join", strings.Join(cfg.Join, ","),
		"-gossip-interval", cfg.GossipInterval.String(),
		"-max-request-bytes", strconv.FormatInt(cfg.MaxRequestBytes, 10),
		"-max-attempts", strconv.Itoa(cfg.MaxAttempts),
		"-retry-backoff", cfg.RetryBackoff.String(),
		"-timeout", cfg.Timeout.String(),
		"-health-interval", cfg.HealthInterval.String(),
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-hedge-quantile", strconv.FormatFloat(cfg.HedgeQuantile, 'g', -1, 64),
		"-hedge-min", cfg.HedgeMinDelay.String(),
		"-breaker-threshold", strconv.Itoa(cfg.BreakerThreshold),
		"-breaker-cooldown", cfg.BreakerCooldown.String(),
	}
}

// fleetRouterConfig is the fleet experiment's router: the static
// worker list and the router's own defaults for everything else, so
// hedging is off (the binary's flag default would turn it on).
func fleetRouterConfig(workers []string) fleet.RouterConfig {
	return fleet.RouterConfig{Workers: workers}
}

// startRouter spawns a real canary-router configured as cfg, by
// re-executing the bench binary exe as "canary-bench canary-router".
func startRouter(exe string, cfg fleet.RouterConfig) (*e2e.Proc, error) {
	cmd := exec.Command(exe, append([]string{"canary-router"}, routerArgs(cfg)...)...)
	return e2e.Start(cmd, "canary-router listening on ")
}

// routerStats reads the router's counters from one /metrics scrape.
func routerStats(routerURL string) (fleet.RouterStats, error) {
	m, err := e2e.Metrics(routerURL)
	if err != nil {
		return fleet.RouterStats{}, err
	}
	return fleet.RouterStats{
		Requests:      m["router_requests_total"],
		BatchRequests: m["router_batch_requests_total"],
		Items:         m["router_items_total"],
		Forwards:      m["router_forwards_total"],
		Failovers:     m["router_failovers_total"],
		UpstreamErrs:  m["router_upstream_errors_total"],
		Deduped:       m["router_deduped_total"],
		Exhausted:     m["router_exhausted_total"],
		Hedges:        m["router_hedges_total"],
		HedgeWins:     m["router_hedge_wins_total"],
		BreakerOpens:  m["router_breaker_opens_total"],
	}, nil
}

// postFleetBatch submits items as one batch to url and returns the
// per-item responses.
func postFleetBatch(url string, items []api.AnalyzeItem) (*api.BatchResponse, error) {
	var br api.BatchResponse
	return &br, e2e.PostJSON(url+"/v1/analyze", api.AnalyzeRequest{Items: items}, &br)
}

// checkBatch compares a batch answer with the direct findings item by
// item, byte for byte. An item that did not complete is an error: the
// fleet lost it.
func checkBatch(br *api.BatchResponse, direct []string) (identical bool, err error) {
	if len(br.Items) != len(direct) {
		return false, fmt.Errorf("%d items answered, want %d", len(br.Items), len(direct))
	}
	identical = true
	for i, it := range br.Items {
		if it.Status != "done" {
			return false, fmt.Errorf("item %d status %q (error %q)", i, it.Status, it.Error)
		}
		f, err := e2e.Findings(it.Result)
		if err != nil {
			return false, fmt.Errorf("item %d: %w", i, err)
		}
		if f != direct[i] {
			identical = false
		}
	}
	return identical, nil
}

// RunFleet measures horizontal scale: the same corpus of items pushed
// through fleets of every size in nodes (each fleet and its canary-router
// freshly spawned from exe, workers single-threaded), with the findings
// of every item checked byte-identical against a direct in-process run
// and the warm repeat required to be fully cache-served. The peer cache
// tier is probed by pushing the warm corpus at one worker directly. On
// the largest fleet a concurrent identical-submission burst exercises
// both dedup layers, and — with two or more nodes — a worker is
// SIGKILLed to gate the router's failover. Every router must drain and
// exit 0 on SIGTERM.
func (e *Experiments) RunFleet(spec workload.Spec, items int, nodes []int, exe string) (FleetResult, error) {
	if items <= 0 {
		items = 12
	}
	if len(nodes) == 0 {
		nodes = []int{1, 2, 4}
	}
	res := FleetResult{Lines: spec.Lines, Items: items, AllIdentical: true, AllWarmCached: true}

	// The corpus: one generated subject plus distinct padding so every
	// item has its own content address but comparable cost.
	base := workload.Generate(spec)
	corpus := make([]api.AnalyzeItem, items)
	for i := range corpus {
		corpus[i] = api.AnalyzeItem{
			Source: fmt.Sprintf("%s\nfunc fleetpad%d() { p%d = malloc(); }", base, i, i),
		}
	}

	// Direct baseline: the library, in this process, same options.
	e.logf("  fleet direct baseline: %d items\n", items)
	direct := make([]string, items)
	for i, it := range corpus {
		var err error
		if direct[i], err = e2e.DirectFindings(it.Source, fleetOptions()); err != nil {
			return res, fmt.Errorf("direct baseline item %d: %w", i, err)
		}
	}

	largest := 0
	for i, n := range nodes {
		if n > nodes[largest] {
			largest = i
		}
	}
	for i, n := range nodes {
		run, err := e.runFleetSize(&res, exe, n, i == largest, base, corpus, direct)
		if err != nil {
			return res, fmt.Errorf("%d-node fleet: %w", n, err)
		}
		if !run.Identical {
			res.AllIdentical = false
		}
		if run.WarmCached != items {
			res.AllWarmCached = false
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// runFleetSize is one fleet size of RunFleet; largest adds the dedup
// burst and the failover phase, recorded in res.
func (e *Experiments) runFleetSize(res *FleetResult, exe string, n int, largest bool, base string, corpus []api.AnalyzeItem, direct []string) (FleetNodeRun, error) {
	run := FleetNodeRun{Nodes: n}
	procs, kill, err := spawnFleet(exe, n)
	if err != nil {
		return run, err
	}
	defer kill()
	urls := make([]string, n)
	for i, p := range procs {
		urls[i] = p.URL()
	}
	router, err := startRouter(exe, fleetRouterConfig(urls))
	if err != nil {
		return run, err
	}
	defer router.Kill()
	routerURL := router.URL()

	// Cold corpus through the router.
	t0 := time.Now()
	cold, err := postFleetBatch(routerURL, corpus)
	if err != nil {
		return run, err
	}
	run.ColdWall = time.Since(t0)
	run.ItemsPerSec = float64(len(corpus)) / run.ColdWall.Seconds()
	if run.Identical, err = checkBatch(cold, direct); err != nil {
		return run, fmt.Errorf("cold batch: %w", err)
	}
	e.logf("  fleet %d-node cold: %v (%.1f items/s, identical=%v)\n",
		n, run.ColdWall.Round(time.Millisecond), run.ItemsPerSec, run.Identical)

	// Warm repeat: every item served from its owner's cache, unchanged.
	t0 = time.Now()
	warm, err := postFleetBatch(routerURL, corpus)
	if err != nil {
		return run, err
	}
	run.WarmWall = time.Since(t0)
	warmIdentical, err := checkBatch(warm, direct)
	if err != nil {
		return run, fmt.Errorf("warm batch: %w", err)
	}
	run.Identical = run.Identical && warmIdentical
	for _, it := range warm.Items {
		if it.Cached {
			run.WarmCached++
		}
	}

	// Peer-tier probe: the whole corpus straight at worker 0, which
	// owns only its shard. Owned items are local warm hits; the rest
	// must be fetched from their shard owners, not recomputed.
	ring := fleet.NewRing(urls)
	for _, it := range corpus {
		if ring.Owner(canary.SubmissionKey(it.Source, fleetOptions())) == urls[0] {
			run.ProbeOwned++
		}
	}
	probe, err := postFleetBatch(urls[0], corpus)
	if err != nil {
		return run, err
	}
	for _, it := range probe.Items {
		if it.Cached {
			run.ProbeCached++
		}
	}
	for i, u := range urls {
		m, err := e2e.Metrics(u)
		if err != nil {
			return run, err
		}
		if i == 0 {
			run.PeerFetches = m["canaryd_peer_fetches_total"]
			run.PeerHits = m["canaryd_peer_hits_total"]
			run.PeerJobsServed = m["canaryd_peer_jobs_served_total"]
		}
		run.AcceptedPerNode = append(run.AcceptedPerNode, int(m["canaryd_jobs_accepted_total"]))
	}
	e.logf("  fleet %d-node probe: %d/%d cached at one node (owns %d, %d peer hits)\n",
		n, run.ProbeCached, len(corpus), run.ProbeOwned, run.PeerHits)

	// On the largest fleet: the cross-node dedup burst, a fresh key
	// fired concurrently at the router.
	if largest {
		burst := 6
		fresh := base + "\nfunc fleetburst() { q = malloc(); }"
		body, _ := json.Marshal(api.AnalyzeRequest{Source: fresh})
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e2e.Post(routerURL+"/v1/analyze", body)
			}()
		}
		wg.Wait()
		res.DedupBurst = burst
		for _, u := range urls {
			m, err := e2e.Metrics(u)
			if err != nil {
				return run, err
			}
			res.WorkerCoalesced += m["canaryd_inflight_coalesced_total"]
		}
	}

	if run.Router, err = routerStats(routerURL); err != nil {
		return run, err
	}
	if largest {
		res.RouterDeduped = run.Router.Deduped
		e.logf("  fleet dedup burst: %d submissions, %d router-deduped, %d worker-coalesced\n",
			res.DedupBurst, res.RouterDeduped, res.WorkerCoalesced)
		if n >= 2 {
			if res.Failover, err = e.fleetFailover(routerURL, procs, ring, base, corpus, direct, run.Router.Failovers); err != nil {
				return run, fmt.Errorf("failover: %w", err)
			}
			if !res.Failover.Identical {
				res.AllIdentical = false
			}
		}
	}

	// Clean shutdown: SIGTERM must let the router drain and exit 0.
	return run, router.Terminate(30 * time.Second)
}

// fleetFailover SIGKILLs the worker that owns corpus item 0 and
// resubmits the corpus plus a fresh item the victim also owns, so the
// batch provably holds work only the dead worker had: every item must
// fail over to a survivor and come back byte-identical, the router must
// count failovers, and its health checker must report the victim down.
// before is the router's failover count ahead of the kill.
func (e *Experiments) fleetFailover(routerURL string, procs []*e2e.Proc, ring *fleet.Ring, base string, corpus []api.AnalyzeItem, direct []string, before uint64) (*FleetFailover, error) {
	owner := func(src string) string { return ring.Owner(canary.SubmissionKey(src, fleetOptions())) }
	victim := owner(corpus[0].Source)
	fresh := ""
	for i := 0; i < 1000 && fresh == ""; i++ {
		if src := fmt.Sprintf("%s\nfunc fleetfresh%d() { q%d = malloc(); }", base, i, i); owner(src) == victim {
			fresh = src
		}
	}
	if fresh == "" {
		return nil, fmt.Errorf("no fresh item owned by %s in 1000 tries", victim)
	}
	freshDirect, err := e2e.DirectFindings(fresh, fleetOptions())
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		if p.URL() == victim {
			p.Kill()
		}
	}

	f := &FleetFailover{Items: len(corpus) + 1}
	t0 := time.Now()
	br, err := postFleetBatch(routerURL, append(corpus[:len(corpus):len(corpus)], api.AnalyzeItem{Source: fresh}))
	if err != nil {
		return nil, err
	}
	f.Wall = time.Since(t0)
	if f.Identical, err = checkBatch(br, append(direct[:len(direct):len(direct)], freshDirect)); err != nil {
		return nil, err
	}
	m, err := e2e.Metrics(routerURL)
	if err != nil {
		return nil, err
	}
	f.Failovers = m["router_failovers_total"] - before
	_, f.VictimDown = e2e.Poll(15*time.Second, 100*time.Millisecond, func() bool {
		return e2e.WorkerStates(routerURL)[victim] == "down"
	})
	e.logf("  fleet failover: %d items after SIGKILL, identical=%v, %d failovers, victim down=%v, %v\n",
		f.Items, f.Identical, f.Failovers, f.VictimDown, f.Wall.Round(time.Millisecond))
	return f, nil
}

// PrintFleet renders the fleet experiment as a text table.
func PrintFleet(w io.Writer, res FleetResult) {
	fmt.Fprintf(w, "Fleet scale-out (%d items of ~%d lines, single-threaded workers)\n",
		res.Items, res.Lines)
	fmt.Fprintf(w, "%-6s %12s %10s %12s %14s %12s %10s\n",
		"nodes", "cold", "items/s", "warm", "probe-cached", "peer-hits", "identical")
	for _, r := range res.Runs {
		fmt.Fprintf(w, "%-6d %12v %10.1f %12v %11d/%-2d %12d %10v\n",
			r.Nodes, r.ColdWall.Round(time.Millisecond), r.ItemsPerSec,
			r.WarmWall.Round(time.Millisecond), r.ProbeCached, res.Items,
			r.PeerHits, r.Identical)
	}
	fmt.Fprintf(w, "dedup burst: %d identical submissions -> %d router-deduped, %d worker-coalesced\n",
		res.DedupBurst, res.RouterDeduped, res.WorkerCoalesced)
	if f := res.Failover; f != nil {
		fmt.Fprintf(w, "failover: %d items after SIGKILL, identical=%v, %d failovers, victim down=%v, %v\n",
			f.Items, f.Identical, f.Failovers, f.VictimDown, f.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "gates: identical=%v warm-cached=%v\n", res.AllIdentical, res.AllWarmCached)
}

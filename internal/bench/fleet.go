package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
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
	// AllIdentical: every fleet size produced the same findings as the
	// direct library run, for every item.
	AllIdentical bool `json:"all_identical"`
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

// postFleetBatch submits items as one batch to url and returns the
// per-item responses.
func postFleetBatch(url string, items []api.AnalyzeItem) (*api.BatchResponse, error) {
	var br api.BatchResponse
	return &br, e2e.PostJSON(url+"/v1/analyze", api.AnalyzeRequest{Items: items}, &br)
}

// RunFleet measures horizontal scale: the same corpus of items pushed
// through fleets of every size in nodes (each fleet freshly spawned from
// exe, workers single-threaded), with the findings of every item checked
// byte-identical against a direct in-process run. The peer cache tier is
// probed by pushing the warm corpus at one worker directly, and a
// concurrent identical-submission burst exercises both dedup layers.
func (e *Experiments) RunFleet(spec workload.Spec, items int, nodes []int, exe string) (FleetResult, error) {
	if items <= 0 {
		items = 12
	}
	if len(nodes) == 0 {
		nodes = []int{1, 2, 4}
	}
	res := FleetResult{Lines: spec.Lines, Items: items, AllIdentical: true}

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

	for _, n := range nodes {
		run := FleetNodeRun{Nodes: n, Identical: true}
		procs, kill, err := spawnFleet(exe, n)
		if err != nil {
			return res, err
		}
		urls := make([]string, n)
		for i, p := range procs {
			urls[i] = p.URL()
		}
		opts := fleetOptions()
		rt, err := fleet.NewRouter(fleet.RouterConfig{Workers: urls, BaseOptions: &opts})
		if err != nil {
			kill()
			return res, err
		}
		routerURL, stopRouter, err := serveRouter(rt)
		if err != nil {
			rt.Close()
			kill()
			return res, err
		}

		fail := func(err error) (FleetResult, error) {
			stopRouter()
			rt.Close()
			kill()
			return res, err
		}

		// Cold corpus through the router.
		t0 := time.Now()
		cold, err := postFleetBatch(routerURL, corpus)
		if err != nil {
			return fail(err)
		}
		run.ColdWall = time.Since(t0)
		run.ItemsPerSec = float64(items) / run.ColdWall.Seconds()
		if cold.Failed != 0 {
			return fail(fmt.Errorf("%d-node cold batch: %d items failed", n, cold.Failed))
		}
		for i, it := range cold.Items {
			f, err := e2e.Findings(it.Result)
			if err != nil {
				return fail(fmt.Errorf("%d-node cold item %d: %w", n, i, err))
			}
			if f != direct[i] {
				run.Identical = false
				res.AllIdentical = false
			}
		}
		e.logf("  fleet %d-node cold: %v (%.1f items/s, identical=%v)\n",
			n, run.ColdWall.Round(time.Millisecond), run.ItemsPerSec, run.Identical)

		// Warm repeat: every item served from its owner's cache.
		t0 = time.Now()
		warm, err := postFleetBatch(routerURL, corpus)
		if err != nil {
			return fail(err)
		}
		run.WarmWall = time.Since(t0)
		for _, it := range warm.Items {
			if it.Cached {
				run.WarmCached++
			}
		}

		// Peer-tier probe: the whole corpus straight at worker 0, which
		// owns only its shard. Owned items are local warm hits; the rest
		// must be fetched from their shard owners, not recomputed.
		for _, it := range corpus {
			key := canary.SubmissionKey(it.Source, fleetOptions())
			if rt.Ring().Owner(key) == urls[0] {
				run.ProbeOwned++
			}
		}
		probe, err := postFleetBatch(urls[0], corpus)
		if err != nil {
			return fail(err)
		}
		for _, it := range probe.Items {
			if it.Cached {
				run.ProbeCached++
			}
		}
		run.PeerFetches = e2e.Counter(urls[0], "canaryd_peer_fetches_total")
		run.PeerHits = e2e.Counter(urls[0], "canaryd_peer_hits_total")
		run.PeerJobsServed = e2e.Counter(urls[0], "canaryd_peer_jobs_served_total")
		for _, u := range urls {
			run.AcceptedPerNode = append(run.AcceptedPerNode,
				int(e2e.Counter(u, "canaryd_jobs_accepted_total")))
		}
		e.logf("  fleet %d-node probe: %d/%d cached at one node (owns %d, %d peer hits)\n",
			n, run.ProbeCached, items, run.ProbeOwned, run.PeerHits)

		// On the largest fleet: the cross-node dedup burst, a fresh key
		// fired concurrently at the router.
		if n == nodes[len(nodes)-1] {
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
			res.RouterDeduped = rt.Stats().Deduped
			for _, u := range urls {
				res.WorkerCoalesced += e2e.Counter(u, "canaryd_inflight_coalesced_total")
			}
			e.logf("  fleet dedup burst: %d submissions, %d router-deduped, %d worker-coalesced\n",
				burst, res.RouterDeduped, res.WorkerCoalesced)
		}

		run.Router = rt.Stats()
		stopRouter()
		rt.Close()
		kill()
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// serveRouter puts a router handler on a loopback listener.
func serveRouter(rt *fleet.Router) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
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
	fmt.Fprintf(w, "all findings identical to direct run: %v\n", res.AllIdentical)
}

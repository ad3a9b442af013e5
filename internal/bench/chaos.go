package bench

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"canary/internal/api"
	"canary/internal/e2e"
	"canary/internal/fleet"
	"canary/internal/workload"
)

// ChaosRound is one scripted failure scenario: the corpus streamed
// through the router while the fleet is being hurt, with the client
// allowed at most one retry per item.
type ChaosRound struct {
	Name  string `json:"name"`
	Items int    `json:"items"`
	// Succeeded items answered with findings byte-identical to the
	// direct run; Divergent items answered but with different bytes;
	// Lost items failed even after the retry budget.
	Succeeded int `json:"succeeded"`
	Divergent int `json:"divergent"`
	Lost      int `json:"lost"`
	// Retries counts retryable errors the client absorbed (each item
	// gets at most one).
	Retries int `json:"retries"`
	// Identical: every answered item matched the direct findings.
	Identical bool `json:"identical"`
	// ConvergeHeartbeats is how many gossip intervals the round's
	// membership event took to reach the router's ring (0 when the
	// round has no membership event).
	ConvergeHeartbeats float64       `json:"converge_heartbeats"`
	Wall               time.Duration `json:"wall_ns"`
}

// ChaosResult is the chaos experiment: a dynamic-membership fleet
// under scripted SIGKILL / restart / SIGSTOP / failpoint-storm rounds,
// proving findings stay byte-identical and no request is silently
// lost. On a single-CPU host the signal is convergence and identity,
// never throughput.
type ChaosResult struct {
	Lines          int           `json:"lines"`
	Items          int           `json:"items"`
	Workers        int           `json:"workers"`
	GossipInterval time.Duration `json:"gossip_interval_ns"`
	Rounds         []ChaosRound  `json:"rounds"`
	// The hard gates.
	AllIdentical bool `json:"all_identical"`
	NoneLost     bool `json:"none_lost"`
	// Converged: every membership event reached the router's ring
	// within the heartbeat bound.
	Converged         bool              `json:"converged"`
	HeartbeatBound    float64           `json:"heartbeat_bound"`
	SuspectObserved   bool              `json:"suspect_observed"`
	RouterStats       fleet.RouterStats `json:"router"`
	BreakerOpensTotal uint64            `json:"breaker_opens_total"`
}

// chaosHeartbeatBound is how many gossip intervals a membership event
// may take to reach the router's ring before the experiment fails.
// Death detection alone costs DeadAfter = 10 intervals; the bound
// leaves slack for scheduling noise on a loaded single-CPU host, while
// still catching a protocol that converges by accident of timeouts.
const chaosHeartbeatBound = 120

// The chaos fleet: three workers — enough that one can be dead, one
// paused, and a quorum still serves — heartbeating every 150ms.
const (
	chaosWorkers = 3
	chaosGossip  = 150 * time.Millisecond
)

// streamCorpus runs the whole corpus through the router, comparing
// every answer against the direct baseline.
func streamCorpus(routerURL string, corpus []api.AnalyzeItem, direct []string) ChaosRound {
	r := ChaosRound{Items: len(corpus), Identical: true}
	t0 := time.Now()
	for i, it := range corpus {
		f, retries, err := e2e.StreamOne(routerURL, it.Source)
		r.Retries += retries
		switch {
		case err != nil:
			r.Lost++
		case f != direct[i]:
			r.Divergent++
			r.Identical = false
		default:
			r.Succeeded++
		}
	}
	r.Wall = time.Since(t0)
	if r.Divergent > 0 {
		r.Identical = false
	}
	return r
}

// waitRingLen polls the router's /metrics until its ring holds want
// workers, returning the wait in gossip heartbeats (-1 on timeout).
func waitRingLen(routerURL string, want int, timeout time.Duration) float64 {
	return waitHeartbeats(timeout, func() bool {
		m, err := e2e.Metrics(routerURL)
		return err == nil && m["router_workers"] == uint64(want)
	})
}

// waitMemberState polls the router's gossip table (GET /v1/gossip)
// until member id is in state st, returning the wait in gossip
// heartbeats (-1 on timeout).
func waitMemberState(routerURL, id, st string, timeout time.Duration) float64 {
	return waitHeartbeats(timeout, func() bool {
		var gr api.GossipResponse
		if e2e.GetJSON(routerURL+"/v1/gossip", &gr) != nil {
			return false
		}
		for _, m := range gr.Members {
			if m.ID == id {
				return m.State == st
			}
		}
		return false
	})
}

// waitHeartbeats polls cond four times a heartbeat and returns the wait
// in gossip heartbeats (-1 on timeout).
func waitHeartbeats(timeout time.Duration, cond func() bool) float64 {
	waited, ok := e2e.Poll(timeout, chaosGossip/4, cond)
	if !ok {
		return -1
	}
	return float64(waited) / float64(chaosGossip)
}

// chaosRouterConfig is the chaos fleet's router: it knows nothing but
// the seeds, so its whole worker set must arrive through gossip; slow
// single-item calls hedge, which is what carries the stream around a
// paused worker.
func chaosRouterConfig(seeds []string) fleet.RouterConfig {
	return fleet.RouterConfig{
		Join:           seeds,
		GossipInterval: chaosGossip,
		RetryBackoff:   25 * time.Millisecond,
		Timeout:        8 * time.Second,
		HealthInterval: 500 * time.Millisecond,
		HedgeQuantile:  0.9,
		HedgeMinDelay:  100 * time.Millisecond,
	}
}

// RunChaos runs the chaos experiment: workers and a canary-router
// spawned as real processes and joined purely by gossip, and scripted
// rounds — baseline, SIGKILL, restart-rejoin, SIGSTOP/SIGCONT, and a
// failpoint storm — each streaming the corpus and asserting
// byte-identity against a direct library run. The healed fleet must end
// with every worker up, and the router must drain and exit 0 on
// SIGTERM.
func (e *Experiments) RunChaos(spec workload.Spec, items int, exe string) (ChaosResult, error) {
	if items <= 0 {
		items = 10
	}
	res := ChaosResult{
		Lines: spec.Lines, Items: items, Workers: chaosWorkers,
		GossipInterval: chaosGossip, HeartbeatBound: chaosHeartbeatBound,
		AllIdentical: true, NoneLost: true, Converged: true,
	}

	// Corpus and direct baseline, as in the fleet experiment.
	base := workload.Generate(spec)
	corpus := make([]api.AnalyzeItem, items)
	direct := make([]string, items)
	for i := range corpus {
		corpus[i] = api.AnalyzeItem{
			Source: fmt.Sprintf("%s\nfunc chaospad%d() { p%d = malloc(); }", base, i, i),
		}
		var err error
		if direct[i], err = e2e.DirectFindings(corpus[i].Source, fleetOptions()); err != nil {
			return res, fmt.Errorf("direct baseline item %d: %w", i, err)
		}
	}

	// Pre-allocate worker addresses and persistent cache dirs: a
	// restarted worker reuses both, which is what makes rejoin-warm real.
	tmp, err := os.MkdirTemp("", "canary-chaos-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	addrs, err := e2e.FreeAddrs(chaosWorkers)
	if err != nil {
		return res, err
	}
	seeds := make([]string, chaosWorkers)
	for i, a := range addrs {
		seeds[i] = "http://" + a
	}
	worker := func(i int) fleetWorker {
		return fleetWorker{addr: addrs[i], join: seeds, gossip: chaosGossip, dir: fmt.Sprintf("%s/w%d", tmp, i)}
	}

	procs := make([]*e2e.Proc, chaosWorkers)
	defer func() {
		for _, p := range procs {
			p.Kill()
		}
	}()
	for i := range procs {
		if procs[i], err = worker(i).start(exe); err != nil {
			return res, err
		}
	}
	router, err := startRouter(exe, chaosRouterConfig(seeds))
	if err != nil {
		return res, err
	}
	defer router.Kill()
	routerURL := router.URL()

	record := func(name string, r ChaosRound, hb float64) {
		r.Name = name
		r.ConvergeHeartbeats = hb
		res.Rounds = append(res.Rounds, r)
		if !r.Identical {
			res.AllIdentical = false
		}
		if r.Lost > 0 {
			res.NoneLost = false
		}
		if hb < 0 || hb > chaosHeartbeatBound {
			res.Converged = false
		}
		e.logf("  chaos %-10s %d/%d ok, %d retries, %d lost, identical=%v, converge=%.1f heartbeats, %v\n",
			name, r.Succeeded, r.Items, r.Retries, r.Lost, r.Identical, hb, r.Wall.Round(time.Millisecond))
	}

	// Round 0 — baseline: the router must first learn all workers from
	// gossip alone, then the corpus streams clean.
	hb := waitRingLen(routerURL, chaosWorkers, 30*time.Second)
	if hb < 0 {
		return res, fmt.Errorf("router never learned the %d-worker fleet", chaosWorkers)
	}
	record("baseline", streamCorpus(routerURL, corpus, direct), hb)

	// Round 1 — SIGKILL: a worker dies mid-corpus with no goodbye. The
	// stream must survive on failover; the ring must then shrink, which
	// only a confirmed death does (suspects stay in the ring).
	procs[1].Kill()
	round := streamCorpus(routerURL, corpus, direct)
	hb = waitRingLen(routerURL, chaosWorkers-1, 60*time.Second)
	record("sigkill", round, hb)

	// Round 2 — rejoin: the same identity restarts (incarnation 0, warm
	// disk store) and must refute its own death and retake its shard.
	if procs[1], err = worker(1).start(exe); err != nil {
		return res, fmt.Errorf("rejoin respawn: %w", err)
	}
	hb = waitRingLen(routerURL, chaosWorkers, 60*time.Second)
	record("rejoin", streamCorpus(routerURL, corpus, direct), hb)

	// Round 3 — pause: SIGSTOP exercises the suspect state (silent but
	// not dead: stays in the ring, requests hedge or fail over). After
	// SIGCONT direct contact must resurrect it without a restart.
	paused := procs[2]
	paused.Cmd.Process.Signal(syscall.SIGSTOP)
	res.SuspectObserved = waitMemberState(routerURL, paused.URL(), api.GossipSuspect, 60*time.Second) >= 0
	round = streamCorpus(routerURL, corpus, direct)
	paused.Cmd.Process.Signal(syscall.SIGCONT)
	hb = waitMemberState(routerURL, paused.URL(), api.GossipAlive, 60*time.Second)
	record("pause", round, hb)

	// Round 4 — failpoint storm: a worker restarts with its peer-cache
	// and disk-store sites injecting intermittent faults. Degradation
	// paths (peer miss → local compute, disk miss → recompute) must
	// keep the findings byte-identical.
	procs[0].Kill()
	storm := "CANARY_FAILPOINTS=peer-fetch=error@2;disk-read=error@2;disk-write=error@3;cache-read=error@5"
	if procs[0], err = worker(0).start(exe, storm); err != nil {
		return res, fmt.Errorf("storm respawn: %w", err)
	}
	hb = waitRingLen(routerURL, chaosWorkers, 60*time.Second)
	record("storm", streamCorpus(routerURL, corpus, direct), hb)

	// The healed fleet: every worker back up in the router's health view.
	if err := e2e.WaitWorkersUp(routerURL, chaosWorkers, 30*time.Second); err != nil {
		return res, err
	}
	if res.RouterStats, err = routerStats(routerURL); err != nil {
		return res, err
	}
	res.BreakerOpensTotal = res.RouterStats.BreakerOpens
	// Clean shutdown: SIGTERM must let the router drain and exit 0.
	return res, router.Terminate(30 * time.Second)
}

// PrintChaos renders the chaos experiment as a text table.
func PrintChaos(w io.Writer, res ChaosResult) {
	fmt.Fprintf(w, "Chaos (%d workers, %d items of ~%d lines, gossip %v)\n",
		res.Workers, res.Items, res.Lines, res.GossipInterval)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %10s %12s %10s\n",
		"round", "ok", "retries", "lost", "identical", "converge(hb)", "wall")
	for _, r := range res.Rounds {
		fmt.Fprintf(w, "%-10s %5d/%-2d %8d %8d %10v %12.1f %10v\n",
			r.Name, r.Succeeded, r.Items, r.Retries, r.Lost, r.Identical,
			r.ConvergeHeartbeats, r.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "suspect state observed under pause: %v\n", res.SuspectObserved)
	fmt.Fprintf(w, "hedges=%d wins=%d failovers=%d breaker-opens=%d\n",
		res.RouterStats.Hedges, res.RouterStats.HedgeWins,
		res.RouterStats.Failovers, res.BreakerOpensTotal)
	fmt.Fprintf(w, "gates: identical=%v none-lost=%v converged=%v (bound %.0f heartbeats)\n",
		res.AllIdentical, res.NoneLost, res.Converged, res.HeartbeatBound)
}

//go:build ignore

// chaos_smoke.go is the `make chaos-smoke` gate: a real canary-router
// and three real canaryd workers wired together purely by gossip
// (-join; no static worker list anywhere), driven through scripted
// chaos rounds over real HTTP and real signals:
//
//   - baseline: the corpus streams clean through the learned ring;
//   - sigkill:  a worker dies mid-service; the stream survives on
//     failover and the membership protocol marks it dead;
//   - rejoin:   the same identity restarts (incarnation 0, warm disk
//     store), refutes its own death, and retakes its shard;
//   - pause:    SIGSTOP parks a worker in the suspect state (observed
//     via the router's gossip table) while the stream hedges around
//     it; SIGCONT resurrects it with no restart;
//   - storm:    a worker restarts with CANARY_FAILPOINTS arming its
//     peer-cache and disk-store sites; degradation must stay invisible.
//
// Every round asserts findings byte-identical to a direct in-process
// library run, no item lost (the client allows one retry per item),
// and membership convergence within a bounded number of heartbeats.
// The run is single-CPU friendly: the signals are identity and
// convergence, never throughput.
//
// Run from the repository root: go run scripts/chaos_smoke.go
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"canary"
	"canary/internal/api"
	"canary/internal/e2e"
)

const (
	smokeItems     = 6
	gossipInterval = 150 * time.Millisecond
	heartbeatBound = 120 // max heartbeats for any membership event to converge
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("chaos-smoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "canary-chaos-smoke-*")
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

	// Fixed worker addresses (restart must reuse the identity) and
	// persistent cache dirs (restart must come back warm).
	const nWorkers = 3
	addrs, err := e2e.FreeAddrs(nWorkers)
	if err != nil {
		return err
	}
	urls := make([]string, nWorkers)
	dirs := make([]string, nWorkers)
	for i := range addrs {
		urls[i] = "http://" + addrs[i]
		dirs[i] = filepath.Join(tmp, fmt.Sprintf("w%d", i))
	}
	seeds := strings.Join(urls, ",")

	startWorker := func(i int, extraEnv ...string) (*e2e.Proc, error) {
		cmd := exec.Command(daemonBin,
			"-addr", addrs[i],
			"-join", seeds,
			"-advertise", urls[i],
			"-gossip-interval", gossipInterval.String(),
			"-cache-dir", dirs[i])
		if len(extraEnv) > 0 {
			cmd.Env = append(os.Environ(), extraEnv...)
		}
		return e2e.Start(cmd, "canaryd listening on ")
	}

	workers := make([]*e2e.Proc, nWorkers)
	defer func() {
		for _, p := range workers {
			p.Kill()
		}
	}()
	for i := range workers {
		if workers[i], err = startWorker(i); err != nil {
			return err
		}
	}

	// The router knows nothing but the seeds: its whole worker set must
	// arrive through gossip.
	router, err := e2e.Start(exec.Command(routerBin,
		"-addr", "127.0.0.1:0",
		"-join", seeds,
		"-gossip-interval", gossipInterval.String(),
		"-retry-backoff", "10ms",
		"-health-interval", "250ms",
		"-timeout", "8s",
		"-hedge-min", "100ms"), "canary-router listening on ")
	if err != nil {
		return err
	}
	defer router.Kill()
	base := router.URL()
	fmt.Println("chaos-smoke: router at", base, "joined to", seeds)

	hb, err := waitMembers(base, func(ms []api.GossipMember) bool {
		return countWorkers(ms, api.GossipAlive) == nWorkers
	}, 30*time.Second)
	if err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}
	fmt.Printf("chaos-smoke: router learned %d workers in %.1f heartbeats\n", nWorkers, hb)

	// Corpus and direct baseline.
	example, err := os.ReadFile("examples/service/program.cn")
	if err != nil {
		return err
	}
	corpus := make([]string, smokeItems)
	direct := make([]string, smokeItems)
	for i := range corpus {
		corpus[i] = fmt.Sprintf("%s\nfunc chaossmokepad%d() { p%d = malloc(); }", example, i, i)
		if direct[i], err = e2e.DirectFindings(corpus[i], canary.DefaultOptions()); err != nil {
			return fmt.Errorf("direct baseline item %d: %w", i, err)
		}
	}

	// Round: baseline.
	if err := streamRound("baseline", base, corpus, direct); err != nil {
		return err
	}

	// Round: SIGKILL. The stream runs against a fleet with a fresh
	// corpse in it; convergence to dead is asserted afterwards.
	workers[1].Kill()
	fmt.Println("chaos-smoke: SIGKILLed", urls[1])
	if err := streamRound("sigkill", base, corpus, direct); err != nil {
		return err
	}
	hb, err = waitMembers(base, func(ms []api.GossipMember) bool {
		return stateOf(ms, urls[1]) == api.GossipDead
	}, 60*time.Second)
	if err != nil {
		return fmt.Errorf("death detection: %w", err)
	}
	if hb > heartbeatBound {
		return fmt.Errorf("death detection took %.1f heartbeats, bound %d", hb, heartbeatBound)
	}
	fmt.Printf("chaos-smoke: victim marked dead in %.1f heartbeats, no survivor restarted\n", hb)

	// Round: rejoin. Same address, same disk store, incarnation 0 — the
	// protocol must let it refute its recorded death and rejoin.
	if workers[1], err = startWorker(1); err != nil {
		return fmt.Errorf("rejoin restart: %w", err)
	}
	hb, err = waitMembers(base, func(ms []api.GossipMember) bool {
		return stateOf(ms, urls[1]) == api.GossipAlive
	}, 60*time.Second)
	if err != nil {
		return fmt.Errorf("rejoin: %w", err)
	}
	if hb > heartbeatBound {
		return fmt.Errorf("rejoin took %.1f heartbeats, bound %d", hb, heartbeatBound)
	}
	fmt.Printf("chaos-smoke: victim rejoined alive in %.1f heartbeats\n", hb)
	if err := streamRound("rejoin", base, corpus, direct); err != nil {
		return err
	}

	// Round: pause. SIGSTOP is not death: the worker must surface as
	// suspect (observed through the router's gossip table), the stream
	// must hedge or fail over around it, and SIGCONT must bring it back
	// alive with no restart and no ring churn.
	workers[2].Cmd.Process.Signal(syscall.SIGSTOP)
	fmt.Println("chaos-smoke: SIGSTOPed", urls[2])
	if _, err = waitMembers(base, func(ms []api.GossipMember) bool {
		return stateOf(ms, urls[2]) == api.GossipSuspect
	}, 60*time.Second); err != nil {
		return fmt.Errorf("suspect state never observed: %w", err)
	}
	fmt.Println("chaos-smoke: paused worker observed suspect")
	if err := streamRound("pause", base, corpus, direct); err != nil {
		return err
	}
	workers[2].Cmd.Process.Signal(syscall.SIGCONT)
	hb, err = waitMembers(base, func(ms []api.GossipMember) bool {
		return stateOf(ms, urls[2]) == api.GossipAlive
	}, 60*time.Second)
	if err != nil {
		return fmt.Errorf("post-SIGCONT recovery: %w", err)
	}
	fmt.Printf("chaos-smoke: resumed worker back alive in %.1f heartbeats\n", hb)

	// Round: failpoint storm. A worker restarts with its degradation
	// paths injecting intermittent faults; the answers must not change.
	workers[0].Kill()
	storm := "CANARY_FAILPOINTS=peer-fetch=error@2;disk-read=error@2;disk-write=error@3;cache-read=error@5"
	if workers[0], err = startWorker(0, storm); err != nil {
		return fmt.Errorf("storm restart: %w", err)
	}
	if _, err = waitMembers(base, func(ms []api.GossipMember) bool {
		return stateOf(ms, urls[0]) == api.GossipAlive
	}, 60*time.Second); err != nil {
		return fmt.Errorf("storm rejoin: %w", err)
	}
	if err := streamRound("storm", base, corpus, direct); err != nil {
		return err
	}

	// The healed fleet: all three workers back in the router's ring.
	if err := e2e.WaitWorkersUp(base, nWorkers, 30*time.Second); err != nil {
		return err
	}

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := router.Terminate(30 * time.Second); err != nil {
		return err
	}
	fmt.Println("chaos-smoke: clean router shutdown")
	return nil
}

// streamRound pushes every corpus item through the router as a
// single-item request with a budget of one retry, asserting findings
// byte-identical to the direct baseline and nothing lost.
func streamRound(name, base string, corpus, direct []string) error {
	retries, t0 := 0, time.Now()
	for i, src := range corpus {
		got, r, err := e2e.StreamOne(base, src)
		retries += r
		if err != nil {
			return fmt.Errorf("round %s item %d lost: %w", name, i, err)
		}
		if got != direct[i] {
			return fmt.Errorf("round %s item %d findings differ from the direct run:\nrouted: %s\ndirect: %s", name, i, got, direct[i])
		}
	}
	fmt.Printf("chaos-smoke: round %-8s %d/%d identical, %d retries, %v\n",
		name, len(corpus), len(corpus), retries, time.Since(t0).Round(time.Millisecond))
	return nil
}

// waitMembers polls the router's GET /v1/gossip table until pred holds,
// returning the wait in gossip heartbeats.
func waitMembers(base string, pred func([]api.GossipMember) bool, timeout time.Duration) (float64, error) {
	var last []api.GossipMember
	waited, ok := e2e.Poll(timeout, gossipInterval/3, func() bool {
		var gr api.GossipResponse
		if e2e.GetJSON(base+"/v1/gossip", &gr) != nil {
			return false
		}
		last = gr.Members
		return pred(last)
	})
	if !ok {
		return -1, fmt.Errorf("gossip table never satisfied the predicate; last: %+v", last)
	}
	return float64(waited) / float64(gossipInterval), nil
}

func countWorkers(ms []api.GossipMember, state string) int {
	n := 0
	for _, m := range ms {
		if m.Role == api.RoleWorker && m.State == state {
			n++
		}
	}
	return n
}

func stateOf(ms []api.GossipMember, id string) string {
	for _, m := range ms {
		if m.ID == id {
			return m.State
		}
	}
	return ""
}

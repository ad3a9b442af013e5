package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"canary"
)

// Flags is canaryd's parsed command line: where to listen, how long to
// drain at shutdown, and the daemon configuration. Config.NodeID and
// (under -join) Config.Advertise stay empty when their flags are; Main
// fills them from the bound listen address.
type Flags struct {
	Addr         string
	DrainTimeout time.Duration
	Config       Config
}

// ParseFlags parses canaryd's command line (without the program name).
// Usage and flag errors are written to stderr; -h returns flag.ErrHelp.
func ParseFlags(args []string, stderr io.Writer) (Flags, error) {
	fs := flag.NewFlagSet("canaryd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8787", "listen address (use :0 for a random port)")
		maxConc    = fs.Int("max-concurrent", 0, "analyses run simultaneously (0 = max(2, NumCPU/4))")
		queueDepth = fs.Int("queue-depth", 64, "bound on admitted-but-unstarted jobs")
		jobTimeout = fs.Duration("job-timeout", 60*time.Second, "per-job analysis deadline cap")
		cacheSize  = fs.Int("cache-entries", 4096, "content-addressed result cache capacity (in-memory tier)")
		cacheDir   = fs.String("cache-dir", "", "spill the warm state (results, summaries, verdicts) to a content-addressed disk store rooted here; a restarted daemon starts warm")
		cacheBytes = fs.Int64("cache-max-bytes", 0, "disk store size cap in bytes; least-recently-accessed entries are evicted past it (0 = 1 GiB; needs -cache-dir)")
		workers    = fs.Int("workers", 0, "per-analysis worker pool size (0 = all CPUs)")
		drainWait  = fs.Duration("drain-timeout", 10*time.Minute, "bound on draining in-flight jobs at shutdown")
		maxBody    = fs.Int64("max-request-bytes", 0, "largest accepted /v1/analyze body in bytes (0 = 16 MiB); oversized requests get 413")
		stageWait  = fs.Duration("stage-timeout", 0, "wall-clock bound per analysis stage (build, check); 0 disables (daemon-only; step budgets stay deterministic)")
		maxRounds  = fs.Int("max-fixpoint-rounds", 0, "step budget: VFG fixpoint rounds before degrading to inconclusive (0 = unlimited)")
		maxSteps   = fs.Int("max-dfs-steps", 0, "step budget: source-sink DFS steps per checker (0 = unlimited)")
		maxNodes   = fs.Int("max-formula-nodes", 0, "step budget: guard formula nodes per query before eliding (0 = unlimited)")
		nodeID     = fs.String("node-id", "", "node identity reported by /healthz (defaults to the listen address)")
		peers      = fs.String("peers", "", "comma-separated fleet member base URLs (enables the peer cache tier; must include -peer-self)")
		peerSelf   = fs.String("peer-self", "", "this node's own base URL within -peers")
		peerWait   = fs.Duration("peer-timeout", 2*time.Second, "bound on one peer cache fetch")
		join       = fs.String("join", "", "comma-separated membership seed URLs: gossip with them, learn the fleet, rebuild the peer ring on every change (replaces -peers/-peer-self)")
		advertise  = fs.String("advertise", "", "this node's base URL as other members reach it (default http://<bound addr>; needs -join)")
		gossipWait = fs.Duration("gossip-interval", 500*time.Millisecond, "membership heartbeat period (suspect after 5x, dead after 10x)")
		maxSess    = fs.Int("max-sessions", 0, "live edit sessions held at once (0 = 256); at the cap the oldest idle session is evicted, or the open gets 503")
		sessTTL    = fs.Duration("session-idle-ttl", 0, "idle time after which a live session is evicted (0 = 10m)")
	)
	if err := fs.Parse(args); err != nil {
		return Flags{}, err
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: canaryd [flags]")
		fs.PrintDefaults()
		return Flags{}, errors.New("unexpected arguments")
	}
	if *peers != "" && *peerSelf == "" {
		return Flags{}, errors.New("-peers requires -peer-self")
	}
	if *join != "" && *peers != "" {
		return Flags{}, errors.New("-join and -peers are mutually exclusive")
	}

	opt := canary.DefaultOptions()
	opt.Workers = *workers
	opt.Budgets = canary.Budgets{
		MaxFixpointRounds: *maxRounds,
		MaxDFSSteps:       *maxSteps,
		MaxFormulaNodes:   *maxNodes,
	}
	cfg := Config{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		CacheEntries:    *cacheSize,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheBytes,
		MaxRequestBytes: *maxBody,
		StageTimeout:    *stageWait,
		Options:         opt,
		NodeID:          *nodeID,
		Peers:           splitList(*peers),
		PeerSelf:        *peerSelf,
		PeerTimeout:     *peerWait,
		Join:            splitList(*join),
		Advertise:       *advertise,
		GossipInterval:  *gossipWait,
		MaxSessions:     *maxSess,
		SessionIdleTTL:  *sessTTL,
	}
	return Flags{Addr: *addr, DrainTimeout: *drainWait, Config: cfg}, nil
}

// splitList splits a comma-separated list, dropping blank entries; an
// empty list is nil.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Main runs canaryd with the given command line (without the program
// name) and returns its exit code: 0 after a clean drain (or -h), 2 on a
// usage, listen, or drain error. The first stdout line is always
// "canaryd listening on <addr>". On SIGTERM or SIGINT the daemon stops
// admitting work, finishes every admitted job, then exits.
func Main(args []string) int {
	fl, err := ParseFlags(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}

	// Listen before building the server so the node identity can default
	// to the actual bound address (meaningful under -addr :0).
	ln, err := net.Listen("tcp", fl.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	cfg := fl.Config
	if cfg.NodeID == "" {
		cfg.NodeID = ln.Addr().String()
	}
	if cfg.Join != nil && cfg.Advertise == "" {
		cfg.Advertise = "http://" + ln.Addr().String()
	}
	srv, err := New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	fmt.Printf("canaryd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	case <-ctx.Done():
	}
	stop()

	// Drain: refuse new work (503) but keep serving polls and metrics until
	// every admitted job completes, then stop the HTTP listener.
	fmt.Fprintln(os.Stderr, "canaryd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), fl.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canaryd: drain incomplete:", err)
		hs.Close()
		return 2
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canaryd:", err)
		return 2
	}
	fmt.Fprintln(os.Stderr, "canaryd: drained, exiting")
	return 0
}

package fleet

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
)

// Flags is canary-router's parsed command line: where to listen and the
// router configuration. Config.Self stays empty when -advertise is;
// Main fills it from the bound listen address.
type Flags struct {
	Addr   string
	Config RouterConfig
}

// ParseFlags parses canary-router's command line (without the program
// name). Usage and flag errors are written to stderr; -h returns
// flag.ErrHelp.
func ParseFlags(args []string, stderr io.Writer) (Flags, error) {
	fs := flag.NewFlagSet("canary-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8786", "listen address (use :0 for a random port)")
		workers     = fs.String("workers", "", "comma-separated canaryd base URLs (static fleet)")
		join        = fs.String("join", "", "comma-separated membership seed URLs (dynamic fleet; replaces -workers)")
		advertise   = fs.String("advertise", "", "this router's base URL as members reach it (default http://<bound addr>; needs -join)")
		gossipWait  = fs.Duration("gossip-interval", 500*time.Millisecond, "membership heartbeat period (suspect after 5x, dead after 10x)")
		maxBody     = fs.Int64("max-request-bytes", 0, "largest accepted /v1/analyze body in bytes (0 = 16 MiB)")
		attempts    = fs.Int("max-attempts", 3, "workers one submission may be offered to before 502")
		backoff     = fs.Duration("retry-backoff", 25*time.Millisecond, "base delay between failover attempts (jittered ±50%)")
		timeout     = fs.Duration("timeout", 5*time.Minute, "bound on one upstream call")
		healthWait  = fs.Duration("health-interval", time.Second, "worker health probe period")
		seed        = fs.Int64("seed", 1, "jitter seed; pin for reproducible failover schedules")
		hedgeQ      = fs.Float64("hedge-quantile", 0.9, "in-flight latency quantile past which a single-item call is hedged at the next candidate (0 disables)")
		hedgeMin    = fs.Duration("hedge-min", 25*time.Millisecond, "floor on the hedge delay")
		brkFails    = fs.Int("breaker-threshold", 3, "consecutive hard failures that open a worker's circuit breaker (negative disables)")
		brkCooldown = fs.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker blocks routing before a half-open probe")
	)
	if err := fs.Parse(args); err != nil {
		return Flags{}, err
	}
	if fs.NArg() != 0 || (*workers == "" && *join == "") {
		fmt.Fprintln(stderr, "usage: canary-router (-workers | -join) url,url,... [flags]")
		fs.PrintDefaults()
		return Flags{}, errors.New("need -workers or -join")
	}
	cfg := RouterConfig{
		Workers:          splitURLs(*workers),
		Join:             splitURLs(*join),
		Self:             *advertise,
		GossipInterval:   *gossipWait,
		MaxRequestBytes:  *maxBody,
		MaxAttempts:      *attempts,
		RetryBackoff:     *backoff,
		Timeout:          *timeout,
		HealthInterval:   *healthWait,
		Seed:             *seed,
		HedgeQuantile:    *hedgeQ,
		HedgeMinDelay:    *hedgeMin,
		BreakerThreshold: *brkFails,
		BreakerCooldown:  *brkCooldown,
	}
	return Flags{Addr: *addr, Config: cfg}, nil
}

// splitURLs splits a comma-separated URL list, dropping blank entries;
// an empty list is nil.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// Main runs canary-router with the given command line (without the
// program name) and returns its exit code: 0 after a clean shutdown (or
// -h), 2 on a usage, listen, or shutdown error. The first stdout line is
// always "canary-router listening on <addr>". On SIGTERM or SIGINT the
// router stops accepting connections, lets in-flight requests finish,
// then exits.
func Main(args []string) int {
	fl, err := ParseFlags(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	}

	// Listen before building the router so the advertised identity can
	// default to the actual bound address (meaningful under -addr :0).
	ln, err := net.Listen("tcp", fl.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	}
	cfg := fl.Config
	if cfg.Self == "" {
		cfg.Self = "http://" + ln.Addr().String()
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		ln.Close()
		return 2
	}
	defer rt.Close()
	fmt.Printf("canary-router listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	case <-ctx.Done():
	}
	stop()

	httpCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "canary-router:", err)
		return 2
	}
	fmt.Fprintln(os.Stderr, "canary-router: exiting")
	return 0
}

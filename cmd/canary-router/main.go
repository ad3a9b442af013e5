// Command canary-router is the stateless front door of a canaryd fleet:
// it consistent-hashes every submission's content address across the
// configured workers, forwards to the owner node, fails over down the
// ring when a worker errors or times out, and coalesces identical
// concurrent submissions into one upstream call. It holds no durable
// state — any number of routers can front the same fleet, and restarting
// one loses nothing.
//
// Usage:
//
//	canary-router -workers http://host1:8787,http://host2:8787 [flags]
//	canary-router -join    http://host1:8787,http://host2:8787 [flags]
//
// With -workers the fleet is the given static list. With -join the
// router gossips with the seed URLs, learns the worker set from the
// membership protocol, and rebuilds its ring on every change — workers
// can die, restart, and scale without touching the router. Per-worker
// circuit breakers trip on consecutive hard failures, and slow
// single-item calls are hedged at the next ring candidate once a
// latency baseline exists.
//
// Endpoints:
//
//	POST /v1/analyze   the canaryd contract, single or batch form
//	                   (async refused: job IDs are per-worker)
//	POST /v1/gossip    membership exchange (with -join; GET returns the table)
//	GET  /healthz      router liveness + per-worker up/saturated/down and
//	                   breaker state, machine-readable with ?format=json
//	GET  /metrics      plain-text router_* counters
//
// The first stdout line is always "canary-router listening on <addr>",
// so wrappers can bind -addr :0 and scrape the chosen port.
package main

import (
	"os"

	"canary/internal/fleet"
)

func main() {
	os.Exit(fleet.Main(os.Args[1:]))
}

// Command canaryd runs Canary as a long-running analysis service: a JSON
// HTTP API over a bounded job queue, a fixed-size pool of concurrent
// analyses, and a content-addressed result cache keyed by the SHA-256 of
// (canonicalized source, options). Repeated submissions are served from
// the cache byte-identically to their cold run; process-wide caches (the
// guard interner, the SMT verdict cache) stay warm across requests.
//
// Usage:
//
//	canaryd [flags]
//
// Endpoints:
//
//	POST /v1/analyze   {"source": "...", "options": {...}, "async": false, "timeout_ms": 0}
//	GET  /v1/jobs/{id} status and result of an async job
//	POST /v1/sessions  open a long-lived edit session: {"source": "...",
//	                   "options": {...}, "session_id": "...", "ttl_seconds": 0}
//	POST /v1/sessions/{id}/edits   apply line-span edits, get the findings delta
//	GET  /v1/sessions/{id}/findings  current findings snapshot
//	DELETE /v1/sessions/{id}       close the session
//	POST /v1/gossip    membership exchange (with -join; GET returns the table)
//	GET  /healthz      200 "ok", or 503 "draining" during shutdown
//	GET  /metrics      plain-text counters and per-stage latency histograms
//	                   (one canaryd_stage_latency_seconds series per pipeline
//	                   registry stage — parse, lower, pta, datadep,
//	                   interference, mhp, vfg, check — plus "total")
//
// On SIGTERM or SIGINT the daemon drains: every admitted job — queued or
// running — completes and stays pollable until the drain finishes, new
// submissions get 503, then the process exits 0. The first stdout line is
// always "canaryd listening on <addr>", so wrappers can bind -addr :0 and
// scrape the chosen port.
package main

import (
	"os"

	"canary/internal/server"
)

func main() {
	os.Exit(server.Main(os.Args[1:]))
}

GO ?= go

.PHONY: check lint build test race vet bench bench-json bench-hotpath-smoke bench-persist-smoke bench-sessions-smoke serve-smoke sessions-smoke fleet-smoke chaos-smoke fuzz-smoke fuzz

## check: the full CI gate — lint (gofmt drift + vet), build, race-enabled
## tests (includes the corpus-wide determinism tests, the fresh-process
## warm-restart tests, and the 16-goroutine fault/budget hammer), vet and
## tests of the separate perfbench module (so an API change cannot break
## the benchmark harness unseen), the short fuzzer smokes, the end-to-end
## daemon, session, fleet, and chaos smoke tests, and one-iteration smokes
## of the interference, large-build, incremental, hotpath, persist, and
## sessions benchmarks.
check: lint
	$(GO) build ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet . && $(GO) test .
	$(GO) test -run - -bench 'InterferenceEval|BuildLarge' -benchtime 1x ./internal/core
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) sessions-smoke
	$(MAKE) fleet-smoke
	$(MAKE) chaos-smoke
	$(GO) run ./cmd/canary-bench -experiment incremental -incr-iters 1 -incr-lines 600 -json > /dev/null
	$(MAKE) bench-hotpath-smoke
	$(MAKE) bench-persist-smoke
	$(MAKE) bench-sessions-smoke

## lint: formatting drift fails the build (gofmt prints the offending
## files), then static vetting.
lint:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## bench: the quick benchmark suite (one bench per paper table/figure).
bench:
	$(GO) test -run - -bench . -benchmem .

## bench-json: regenerate the checked-in benchmark snapshots (the fleet
## and chaos experiments spawn real canaryd workers and a real
## canary-router by re-executing canary-bench as "canary-bench canaryd"
## and "canary-bench canary-router"; fig8 exits 1 when its end-to-end
## log–log slope of time against size exceeds 1.15).
bench-json:
	$(GO) run ./cmd/canary-bench -experiment fig8 -json > BENCH_fig8.json
	$(GO) run ./cmd/canary-bench -experiment incremental -json > BENCH_incremental.json
	$(GO) run ./cmd/canary-bench -experiment hotpath -json > BENCH_hotpath.json
	$(GO) run ./cmd/canary-bench -experiment persist -json > BENCH_persist.json
	$(GO) run ./cmd/canary-bench -experiment fleet -json > BENCH_fleet.json
	$(GO) run ./cmd/canary-bench -experiment chaos -json > BENCH_chaos.json
	$(GO) run ./cmd/canary-bench -experiment sessions -json > BENCH_sessions.json

## bench-hotpath-smoke: tiny-corpus run of the hotpath experiment with an
## allocation regression gate — guard construction above 40 allocs/op (the
## pre-interning representation sat at ~43) fails the build.
bench-hotpath-smoke:
	$(GO) run ./cmd/canary-bench -experiment hotpath \
		-hotpath-lines 400 -hotpath-guard-ops 200 -hotpath-iters 2 \
		-hotpath-max-guard-allocs 40 -json > /dev/null

## bench-persist-smoke: tiny-corpus run of the persist experiment — a real
## fresh-process warm restart that must serve at least one disk hit and
## stay byte-identical to the cold run (the experiment exits 1 otherwise).
bench-persist-smoke:
	$(GO) run ./cmd/canary-bench -experiment persist \
		-persist-lines 400 -persist-iters 1 -persist-min-disk-hits 1 -json > /dev/null

## bench-sessions-smoke: small-subject run of the sessions experiment —
## the per-edit delta path must stay strictly below the full warm re-run
## it replaces, and the folded deltas byte-identical to a cold analysis
## (the experiment exits 1 on either failure).
bench-sessions-smoke:
	$(GO) run ./cmd/canary-bench -experiment sessions \
		-sessions-lines 600 -sessions-edits 6 -json > /dev/null

## serve-smoke and sessions-smoke drive the real binaries over real
## HTTP and real signals through one shared process harness
## (internal/e2e); fleet-smoke and chaos-smoke are the fleet and chaos
## experiments at smoke size, which spawn a real fleet the same way.

## serve-smoke: end-to-end canaryd exercise — random port, example
## submission vs CLI, cache replay, /healthz, /metrics, 413, queue-full
## backpressure with Retry-After, SIGTERM drain.
serve-smoke:
	$(GO) run scripts/serve_smoke.go

## sessions-smoke: end-to-end live-session exercise — real canaryd with a
## short idle TTL, session opened, three edits streamed with client-side
## delta folds checked byte-identical to GET findings, duplicate-open and
## rejected-edit paths, TTL eviction, SIGTERM drain.
sessions-smoke:
	$(GO) run scripts/sessions_smoke.go

## fleet-smoke: the fleet experiment at smoke size — a real canary-router
## in front of two real canaryd workers (canary-bench re-executed as
## both); cold batch byte-identical to a direct library run, warm replay
## fully cache-served and identical, then the worker owning the first
## item SIGKILLed and the batch resubmitted with a fresh item it owned:
## all identical, failovers counted, victim reported down, and the
## router drains and exits 0 on SIGTERM. Any failed gate exits non-zero.
fleet-smoke:
	$(GO) run ./cmd/canary-bench -experiment fleet -fleet-nodes 2 -fleet-items 6

## chaos-smoke: the chaos experiment at smoke size — a gossip-joined
## fleet (a real canary-router and three canaryd workers, no static
## worker list) driven through SIGKILL, dead-node rejoin, SIGSTOP/SIGCONT
## suspect, and a failpoint storm, with every round asserted
## byte-identical to a direct library run, nothing lost, membership
## convergence bounded in heartbeats, the healed fleet all up, and a
## clean router SIGTERM exit. Any failed gate exits non-zero.
chaos-smoke:
	$(GO) run ./cmd/canary-bench -experiment chaos -chaos-items 6

## fuzz-smoke: the short fuzzer passes run by check — the parser, the
## whole pipeline, the streaming canonical-text comparison of the live
## session fast path, the disk- and peer-facing wire decoders (disk entry,
## summary, verdict, peer cache entry), and the HTTP request envelopes
## (analyze/batch, gossip, edit).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=5s ./internal/lang
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=5s .
	$(GO) test -run=NONE -fuzz=FuzzCanonicalEqual -fuzztime=5s ./internal/digest
	$(GO) test -run=NONE -fuzz=FuzzDecodeEntry -fuzztime=5s ./internal/diskstore
	$(GO) test -run=NONE -fuzz=FuzzDecodeSummary -fuzztime=5s ./internal/pta
	$(GO) test -run=NONE -fuzz=FuzzDecodeVerdict -fuzztime=5s ./internal/smt
	$(GO) test -run=NONE -fuzz=FuzzParseAnalyzeRequest -fuzztime=5s ./internal/api
	$(GO) test -run=NONE -fuzz=FuzzParseGossip -fuzztime=5s ./internal/api
	$(GO) test -run=NONE -fuzz=FuzzParseEditRequest -fuzztime=5s ./internal/api
	$(GO) test -run=NONE -fuzz=FuzzDecodePeerEntry -fuzztime=5s ./internal/fleet

## fuzz: longer exploratory fuzzing of the parser and the full pipeline.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=2m ./internal/lang
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=2m .

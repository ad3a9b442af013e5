// Command canary-bench regenerates the paper's evaluation tables and
// figures over the synthetic subject catalogue:
//
//	canary-bench -experiment fig7a    # VFG construction time (Fig. 7a)
//	canary-bench -experiment fig7b    # VFG construction memory (Fig. 7b)
//	canary-bench -experiment fig8     # Canary scalability + linear fits (Fig. 8)
//	canary-bench -experiment table1   # bug-hunting comparison (Table 1)
//	canary-bench -experiment parallel # worker-pool sweep + SMT-cache replay
//	canary-bench -experiment serve    # canaryd scheduler: cold/warm phases, cache hits, queue depth
//	canary-bench -experiment incremental # one-edit re-analysis: cold vs warm session latency and reuse rates
//	canary-bench -experiment trace    # per-stage wall-clock split of one analysis (the pipeline registry spans)
//	canary-bench -experiment hotpath  # allocs/op, B/op, ns/op of the hot-path representations vs the recorded pre-overhaul baseline
//	canary-bench -experiment persist  # warm restarts: fresh-process cold vs disk-warm latency, hit rates, store size
//	canary-bench -experiment fleet    # horizontal scale: N daemon processes behind the router, throughput, peer cache tier, dedup, routing invariance
//	canary-bench -experiment chaos    # self-healing: gossip-joined fleet under SIGKILL/restart/SIGSTOP/failpoint rounds, byte-identity and convergence gates
//	canary-bench -experiment sessions # edit-native protocol: per-edit session delta vs full warm re-run, fold-identity and median-latency gates
//	canary-bench -experiment all
//
// -json replaces the text tables with one JSON object holding the raw
// measurements of the selected experiments. "canary-bench canaryd
// [flags]" runs canaryd itself and "canary-bench canary-router [flags]"
// the router, so the fleet and chaos experiments spawn a real fleet —
// workers and router — from the one binary. At smoke size those two
// experiments are the `make fleet-smoke` and `make chaos-smoke` gates:
// the process exits 1 when findings diverge from a direct library run,
// a warm batch is not fully cache-served, the failover kill goes
// uncounted or unreported, a chaos item is lost, membership does not
// converge, or a paused worker is never seen suspect. A fleet batch item
// that fails, or a router that does not drain and exit 0 on SIGTERM,
// fails the run with exit 2.
//
// Subject sizes and the per-tool timeout are scaled-down stand-ins for the
// paper's testbed (see DESIGN.md); -scale and -timeout control them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"canary/internal/bench"
	"canary/internal/fleet"
	"canary/internal/server"
	"canary/internal/workload"
)

func main() {
	// "canary-bench canaryd <flags>" is canaryd itself and
	// "canary-bench canary-router <flags>" the router: the fleet and
	// chaos experiments spawn their fleets by re-executing this binary.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "canaryd":
			os.Exit(server.Main(os.Args[2:]))
		case "canary-router":
			os.Exit(fleet.Main(os.Args[2:]))
		}
	}
	var (
		experiment = flag.String("experiment", "all", "fig7a | fig7b | fig8 | table1 | parallel | all")
		scale      = flag.Float64("scale", 0.004, "lines per project LoC (subject size scale)")
		subjects   = flag.Int("subjects", 20, "how many catalogue subjects to run (prefix)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-baseline timeout (the paper's 12h, scaled)")
		sweepN     = flag.Int("sweep", 6, "number of Fig. 8 sweep points")
		sweepMin   = flag.Int("sweep-min", 500, "smallest Fig. 8 subject (lines)")
		sweepMax   = flag.Int("sweep-max", 16000, "largest Fig. 8 subject (lines)")
		parLines   = flag.Int("parallel-lines", 3200, "subject size for the parallel worker sweep")
		srvClients = flag.Int("serve-clients", 8, "concurrent submitters in the serve experiment")
		srvPerCli  = flag.Int("serve-requests", 6, "requests per submitter in the serve experiment")
		srvLines   = flag.Int("serve-lines", 400, "subject size for the serve experiment")
		incrLines  = flag.Int("incr-lines", 2600, "subject size for the incremental experiment")
		incrIters  = flag.Int("incr-iters", 3, "cold/warm repetitions in the incremental experiment (best-of)")
		traceLines = flag.Int("trace-lines", 2600, "subject size for the trace experiment")
		hpLines    = flag.Int("hotpath-lines", 2600, "subject size for the hotpath experiment (the checked-in baseline applies only at the default)")
		hpGuardOps = flag.Int("hotpath-guard-ops", 4000, "guard-construction operations measured in the hotpath experiment")
		hpIters    = flag.Int("hotpath-iters", 8, "iterations of the pta/datadep/interference hotpath sections")
		hpMaxGuard = flag.Int64("hotpath-max-guard-allocs", 0, "fail (exit 1) if guard-construct allocs/op exceeds this ceiling; 0 disables the assertion")
		perLines   = flag.Int("persist-lines", 2600, "subject size for the persist experiment")
		perIters   = flag.Int("persist-iters", 3, "cold/warm fresh-process repetitions in the persist experiment (best-of)")
		perMinHits = flag.Int64("persist-min-disk-hits", 0, "fail (exit 1) if the warm-restart process served fewer disk hits than this; 0 disables the assertion")
		childDir   = flag.String("persist-dir", "", "internal: warm-state directory of a -persist-child run")
		childSrc   = flag.String("persist-src", "", "internal: subject file of a -persist-child run")
		childMode  = flag.Bool("persist-child", false, "internal: run one analysis through a persistent session and print its report as JSON (used by -experiment persist to get fresh processes)")
		flLines    = flag.Int("fleet-lines", 1600, "subject size for the fleet experiment")
		flItems    = flag.Int("fleet-items", 12, "corpus items in the fleet experiment")
		flNodes    = flag.String("fleet-nodes", "1,2,4", "comma-separated fleet sizes to sweep")
		chLines    = flag.Int("chaos-lines", 300, "subject size for the chaos experiment")
		chItems    = flag.Int("chaos-items", 10, "corpus items streamed per chaos round")
		seLines    = flag.Int("sessions-lines", 2600, "subject size for the sessions experiment")
		seEdits    = flag.Int("sessions-edits", 9, "edit rounds in the sessions experiment (2:1 representation-only:semantic save mix)")
		jsonOut    = flag.Bool("json", false, "emit the raw measurements as JSON instead of text tables")
		verbose    = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	if *childMode {
		os.Exit(bench.RunPersistChild(*childDir, *childSrc))
	}

	e := &bench.Experiments{Timeout: *timeout}
	if *verbose {
		e.Out = os.Stderr
	}

	want := func(names ...string) bool {
		for _, n := range names {
			if *experiment == n {
				return true
			}
		}
		return *experiment == "all"
	}
	known := want("fig7a", "fig7b", "fig8", "table1", "parallel", "serve", "incremental", "trace", "hotpath", "persist", "fleet", "chaos", "sessions")
	if !known {
		fmt.Fprintf(os.Stderr, "canary-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	// Collected measurements; only the selected experiments are non-nil.
	out := struct {
		Subjects    []bench.SubjectResult    `json:"subjects,omitempty"`
		Fig8        *bench.Fig8Result        `json:"fig8,omitempty"`
		Parallel    *bench.ParallelResult    `json:"parallel,omitempty"`
		Serve       *bench.ServeResult       `json:"serve,omitempty"`
		Incremental *bench.IncrementalResult `json:"incremental,omitempty"`
		Trace       *bench.TraceResult       `json:"trace,omitempty"`
		Hotpath     *bench.HotpathResult     `json:"hotpath,omitempty"`
		Persist     *bench.PersistResult     `json:"persist,omitempty"`
		Fleet       *bench.FleetResult       `json:"fleet,omitempty"`
		Chaos       *bench.ChaosResult       `json:"chaos,omitempty"`
		Sessions    *bench.SessionsResult    `json:"sessions,omitempty"`
	}{}

	if want("fig7a", "fig7b", "table1") {
		projects := workload.Projects(*scale)
		if *subjects < len(projects) {
			projects = projects[:*subjects]
		}
		results, err := e.RunAll(projects)
		if err != nil {
			fail(err)
		}
		out.Subjects = results
	}
	if want("fig8") {
		res, err := e.RunFig8(workload.SizeSweep(*sweepN, *sweepMin, *sweepMax))
		if err != nil {
			fail(err)
		}
		out.Fig8 = &res
	}
	if want("parallel") {
		spec := workload.SizeSweep(1, *parLines, *parLines)[0]
		res, err := e.RunParallel(spec, []int{1, 2, 4, 8})
		if err != nil {
			fail(err)
		}
		out.Parallel = &res
	}
	if want("serve") {
		spec := workload.SizeSweep(1, *srvLines, *srvLines)[0]
		res, err := e.RunServe(spec, *srvClients, *srvPerCli)
		if err != nil {
			fail(err)
		}
		out.Serve = &res
	}
	if want("incremental") {
		spec := workload.SizeSweep(1, *incrLines, *incrLines)[0]
		res, err := e.RunIncremental(spec, *incrIters)
		if err != nil {
			fail(err)
		}
		out.Incremental = &res
	}
	if want("trace") {
		spec := workload.SizeSweep(1, *traceLines, *traceLines)[0]
		res, err := e.RunTrace(spec)
		if err != nil {
			fail(err)
		}
		out.Trace = &res
	}
	if want("hotpath") {
		spec := workload.SizeSweep(1, *hpLines, *hpLines)[0]
		res, err := e.RunHotpath(spec, *hpGuardOps, *hpIters)
		if err != nil {
			fail(err)
		}
		out.Hotpath = &res
		if *hpMaxGuard > 0 && res.Current.GuardConstruct.AllocsPerOp > *hpMaxGuard {
			fmt.Fprintf(os.Stderr, "canary-bench: guard-construct allocs/op %d exceeds ceiling %d\n",
				res.Current.GuardConstruct.AllocsPerOp, *hpMaxGuard)
			os.Exit(1)
		}
	}
	if want("persist") {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		spec := workload.SizeSweep(1, *perLines, *perLines)[0]
		res, err := e.RunPersist(spec, *perIters, exe)
		if err != nil {
			fail(err)
		}
		out.Persist = &res
		if *perMinHits > 0 && res.Warm.DiskHits < uint64(*perMinHits) {
			fmt.Fprintf(os.Stderr, "canary-bench: warm-restart disk hits %d below floor %d\n",
				res.Warm.DiskHits, *perMinHits)
			os.Exit(1)
		}
		if !res.Identical || !res.EditedIdentical {
			fmt.Fprintf(os.Stderr, "canary-bench: warm-restart output not byte-identical to cold (warm=%v edited=%v)\n",
				res.Identical, res.EditedIdentical)
			os.Exit(1)
		}
	}
	if want("fleet") {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		var sizes []int
		for _, part := range strings.Split(*flNodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fail(fmt.Errorf("bad -fleet-nodes entry %q", part))
			}
			sizes = append(sizes, n)
		}
		spec := workload.SizeSweep(1, *flLines, *flLines)[0]
		res, err := e.RunFleet(spec, *flItems, sizes, exe)
		if err != nil {
			fail(err)
		}
		out.Fleet = &res
		// The fleet gates are hard: a fleet that changes the findings is
		// broken no matter how fast it is, a warm repeat must be served
		// from cache, and a killed worker must be failed over and
		// reported down.
		if !res.AllIdentical {
			fmt.Fprintln(os.Stderr, "canary-bench: fleet findings differ from the direct run")
			os.Exit(1)
		}
		if !res.AllWarmCached {
			fmt.Fprintln(os.Stderr, "canary-bench: a warm fleet batch was not fully cache-served")
			os.Exit(1)
		}
		if f := res.Failover; f != nil && f.Failovers == 0 {
			fmt.Fprintln(os.Stderr, "canary-bench: router counted no failover after a worker was SIGKILLed")
			os.Exit(1)
		}
		if f := res.Failover; f != nil && !f.VictimDown {
			fmt.Fprintln(os.Stderr, "canary-bench: router never reported the SIGKILLed worker down")
			os.Exit(1)
		}
	}

	if want("chaos") {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		spec := workload.SizeSweep(1, *chLines, *chLines)[0]
		res, err := e.RunChaos(spec, *chItems, exe)
		if err != nil {
			fail(err)
		}
		out.Chaos = &res
		// The chaos gates are hard: findings must stay byte-identical
		// under every failure, nothing may be silently lost, and the
		// membership protocol must converge within the heartbeat bound.
		if !res.AllIdentical {
			fmt.Fprintln(os.Stderr, "canary-bench: chaos findings diverged from the direct run")
			os.Exit(1)
		}
		if !res.NoneLost {
			fmt.Fprintln(os.Stderr, "canary-bench: chaos rounds lost requests")
			os.Exit(1)
		}
		if !res.Converged {
			fmt.Fprintln(os.Stderr, "canary-bench: membership did not converge within the heartbeat bound")
			os.Exit(1)
		}
		if !res.SuspectObserved {
			fmt.Fprintln(os.Stderr, "canary-bench: paused worker was never observed suspect")
			os.Exit(1)
		}
	}

	if want("sessions") {
		spec := workload.SizeSweep(1, *seLines, *seLines)[0]
		res, err := e.RunSessions(spec, *seEdits)
		if err != nil {
			fail(err)
		}
		out.Sessions = &res
		// The edit-native gates are hard: a session whose folded deltas
		// drift from a cold analysis is wrong, and one whose per-edit
		// median is no better than a full warm re-run is pointless.
		if !res.FoldIdentical {
			fmt.Fprintln(os.Stderr, "canary-bench: folded session deltas differ from the cold analysis of the final source")
			os.Exit(1)
		}
		if res.SessionMedian >= res.RerunMedian {
			fmt.Fprintf(os.Stderr, "canary-bench: per-edit session median %v not below full warm re-run median %v\n",
				res.SessionMedian, res.RerunMedian)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	first := true
	sep := func() {
		if !first {
			fmt.Println()
		}
		first = false
	}
	if out.Subjects != nil {
		if want("fig7a") {
			sep()
			bench.PrintFig7a(os.Stdout, out.Subjects)
		}
		if want("fig7b") {
			sep()
			bench.PrintFig7b(os.Stdout, out.Subjects)
		}
		if want("table1") {
			sep()
			bench.PrintTable1(os.Stdout, out.Subjects)
		}
	}
	if out.Fig8 != nil {
		sep()
		bench.PrintFig8(os.Stdout, *out.Fig8)
	}
	if out.Parallel != nil {
		sep()
		bench.PrintParallel(os.Stdout, *out.Parallel)
	}
	if out.Serve != nil {
		sep()
		bench.PrintServe(os.Stdout, *out.Serve)
	}
	if out.Incremental != nil {
		sep()
		bench.PrintIncremental(os.Stdout, *out.Incremental)
	}
	if out.Trace != nil {
		sep()
		bench.PrintTrace(os.Stdout, *out.Trace)
	}
	if out.Hotpath != nil {
		sep()
		bench.PrintHotpath(os.Stdout, *out.Hotpath)
	}
	if out.Persist != nil {
		sep()
		bench.PrintPersist(os.Stdout, *out.Persist)
	}
	if out.Fleet != nil {
		sep()
		bench.PrintFleet(os.Stdout, *out.Fleet)
	}
	if out.Chaos != nil {
		sep()
		bench.PrintChaos(os.Stdout, *out.Chaos)
	}
	if out.Sessions != nil {
		sep()
		bench.PrintSessions(os.Stdout, *out.Sessions)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "canary-bench:", err)
	os.Exit(2)
}

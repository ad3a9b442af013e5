package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// PrintFig7a renders the VFG-construction time comparison (Fig. 7a) as a
// text series: one row per subject ordered by size, one column per tool,
// "TIMEOUT" matching the paper's bars that hit the budget.
func PrintFig7a(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Fig. 7a — VFG construction time (subjects ordered by size)")
	fmt.Fprintf(w, "%-14s %8s %12s %12s %12s\n", "subject", "KLoC", "Saber", "Fsam", "Canary")
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %8.0f %12s %12s %12s\n", r.Name, r.KLoC,
			timeOrNA(r.Saber), timeOrNA(r.Fsam), timeOrNA(r.Canary))
	}
	sSpeed, fSpeed := speedups(rs)
	fmt.Fprintf(w, "geo-mean speedup of Canary: %.1fx vs Saber, %.1fx vs Fsam (subjects ≥%v where the baseline finished)\n",
		sSpeed, fSpeed, speedupFloor)
}

// speedupFloor excludes sub-noise subjects from the speedup statistic.
const speedupFloor = 5 * time.Millisecond

// PrintFig7b renders the memory comparison (Fig. 7b).
func PrintFig7b(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Fig. 7b — VFG construction memory (subjects ordered by size)")
	fmt.Fprintf(w, "%-14s %8s %12s %12s %12s\n", "subject", "KLoC", "Saber", "Fsam", "Canary")
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %8.0f %12s %12s %12s\n", r.Name, r.KLoC,
			memOrNA(r.Saber), memOrNA(r.Fsam), memOrNA(r.Canary))
	}
}

// PrintTable1 renders the bug-hunting comparison in the layout of the
// paper's Table 1, with the paper's own numbers alongside for reference.
func PrintTable1(w io.Writer, rs []SubjectResult) {
	fmt.Fprintln(w, "Table 1 — Results of bug hunting (measured | paper)")
	fmt.Fprintf(w, "%-14s %6s | %-17s | %-17s | %-21s | %s\n",
		"project", "KLoC", "Saber FP%/reports", "Fsam FP%/reports", "Canary FP/reports", "paper S/F/C")
	var totalReports, totalFPs int
	for _, r := range rs {
		fmt.Fprintf(w, "%-14s %6.0f | %-17s | %-17s | %-21s | %s/%s/%d(%dFP)\n",
			r.Name, r.KLoC,
			fpOrNA(r.Saber), fpOrNA(r.Fsam),
			fmt.Sprintf("%d / %d", r.Canary.FPs, r.Canary.Reports),
			naInt(r.PaperSaberReports), naInt(r.PaperFsamReports),
			r.PaperCanaryReports, r.PaperCanaryFPs)
		totalReports += r.Canary.Reports
		totalFPs += r.Canary.FPs
	}
	rate := 0.0
	if totalReports > 0 {
		rate = 100 * float64(totalFPs) / float64(totalReports)
	}
	fmt.Fprintf(w, "Canary totals: %d reports, %d FPs (%.2f%%); paper: 15 reports, 4 FPs (26.67%%)\n",
		totalReports, totalFPs, rate)
}

// PrintFig8 renders the scalability sweep and its linear fits.
func PrintFig8(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Fig. 8 — Scalability of Canary for bug hunting")
	fmt.Fprintf(w, "%10s %12s %12s %8s\n", "KLoC", "time", "memory", "reports")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%10.2f %12s %12s %8d\n", p.KLoC,
			p.Time.Round(time.Millisecond), fmtBytes(p.PeakMem), p.Reports)
	}
	fmt.Fprintf(w, "time  fit: %.4f ms/KLoC + %.1f  (R²=%.3f)\n",
		res.TimeSlope, res.TimeIntercept, res.TimeR2)
	fmt.Fprintf(w, "mem   fit: %s/KLoC + %s  (R²=%.3f)\n",
		fmtBytes(uint64(maxF(res.MemSlope, 0))), fmtBytes(uint64(maxF(res.MemIntercept, 0))), res.MemR2)
	fmt.Fprintln(w, "paper fits: time 0.0326 min/KLoC (R²=0.83), memory 0.0193 GB/KLoC (R²=0.78)")
	fmt.Fprintf(w, "log–log slope of time against size: %.2f end to end (gate ≤ %.2f)\n", res.LogLogSlope, Fig8MaxSlope)
	for _, s := range res.StageSlopes {
		fmt.Fprintf(w, "  %-13s %.2f\n", s.Stage, s.Slope)
	}
}

// PrintParallel renders the worker sweep and the cache replay rounds.
func PrintParallel(w io.Writer, res ParallelResult) {
	fmt.Fprintf(w, "Parallel pipeline — worker sweep (%d-line subject)\n", res.Lines)
	fmt.Fprintf(w, "%8s %12s %12s %8s %8s\n", "workers", "build", "check", "speedup", "reports")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%8d %12s %12s %7.2fx %8d\n", p.Workers,
			p.BuildTime.Round(time.Millisecond), p.CheckTime.Round(time.Millisecond),
			p.Speedup, p.Reports)
	}
	fmt.Fprintf(w, "SMT cache: cold round %v (%d queries, %d hits/%d misses) — warm round %v (%d queries, %d hits/%d misses)\n",
		res.Cold.CheckTime.Round(time.Millisecond), res.Cold.SolverQueries, res.Cold.CacheHits, res.Cold.CacheMisses,
		res.Warm.CheckTime.Round(time.Millisecond), res.Warm.SolverQueries, res.Warm.CacheHits, res.Warm.CacheMisses)
}

// PrintServe renders the service-mode experiment: cold vs warm phase and
// the queue-depth profile.
func PrintServe(w io.Writer, res ServeResult) {
	fmt.Fprintf(w, "Service mode — %d clients × %d requests (%d-line subjects), %d workers, queue depth %d\n",
		res.Clients, res.PerClient, res.Lines, res.MaxConcurrent, res.QueueDepth)
	fmt.Fprintf(w, "%6s %8s %10s %12s %12s %12s %8s %8s\n",
		"phase", "requests", "req/s", "p50", "p95", "elapsed", "hits", "misses")
	row := func(name string, p ServePhase) {
		fmt.Fprintf(w, "%6s %8d %10.1f %12s %12s %12s %8d %8d\n",
			name, p.Requests, p.Throughput,
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond),
			p.Elapsed.Round(time.Millisecond), p.CacheHits, p.CacheMisses)
	}
	row("cold", res.Cold)
	row("warm", res.Warm)
	fmt.Fprintf(w, "backpressure: %d queue-full retries cold, %d warm; queue depth max %d over %d samples\n",
		res.Cold.Retries, res.Warm.Retries, res.MaxQueueDepth, len(res.QueueDepthSamples))
	fmt.Fprintf(w, "content store: %d entries after warm phase\n", res.CacheEntries)
}

// PrintIncremental renders the one-edit incremental re-analysis experiment.
func PrintIncremental(w io.Writer, res IncrementalResult) {
	fmt.Fprintf(w, "Incremental analysis — one-statement edit (%d-line subject, %d functions, best of %d)\n",
		res.Lines, res.Funcs, res.Iters)
	fmt.Fprintf(w, "%6s %12s %18s %14s %16s %14s\n",
		"run", "latency", "summaries reused", "verdict hits", "pairs rechecked", "trivial solves")
	fmt.Fprintf(w, "%6s %12s %18s %14s %16s %14s\n",
		"cold", res.ColdTime.Round(time.Millisecond).String(),
		fmt.Sprintf("0/%d", res.Funcs), "0", "all", "-")
	fmt.Fprintf(w, "%6s %12s %18s %14d %16d %14d\n",
		"warm", res.WarmTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%d/%d", res.SummaryHits, res.Funcs),
		res.VerdictHits, res.PairsRechecked, res.TrivialSolves)
	fmt.Fprintf(w, "speedup: %.2fx; %d/%d functions reanalyzed; outputs byte-identical: %v\n",
		res.Speedup, res.FuncsReanalyzed, res.Funcs, res.Identical)
}

// PrintTrace renders the per-stage wall-clock split of one analysis.
func PrintTrace(w io.Writer, res TraceResult) {
	fmt.Fprintf(w, "Pipeline trace — per-stage cost (%d-line subject, %d report(s), total %v)\n",
		res.Lines, res.Reports, res.Total.Round(time.Millisecond))
	fmt.Fprintf(w, "%-13s %12s %10s %10s %12s\n", "stage", "wall", "steps", "budget", "cache hits")
	for _, sc := range res.Stages {
		budget := "-"
		if sc.Budget > 0 {
			budget = fmt.Sprintf("%d", sc.Budget)
		}
		fmt.Fprintf(w, "%-13s %12v %10d %10s %12d\n", sc.Stage, sc.Wall, sc.Steps, budget, sc.CacheHits)
	}
	fmt.Fprintf(w, "all registry stages present: %v\n", res.Complete)
}

// speedups returns the geometric-mean build-time speedups of Canary over
// each baseline, counting only subjects the baseline finished.
func speedups(rs []SubjectResult) (vsSaber, vsFsam float64) {
	geo := func(sel func(SubjectResult) ToolRun) float64 {
		prod, n := 1.0, 0
		for _, r := range rs {
			b := sel(r)
			if b.TimedOut || r.Canary.BuildTime < speedupFloor || b.BuildTime <= 0 {
				continue
			}
			prod *= float64(b.BuildTime) / float64(r.Canary.BuildTime)
			n++
		}
		if n == 0 {
			return 0
		}
		return math.Pow(prod, 1/float64(n))
	}
	return geo(func(r SubjectResult) ToolRun { return r.Saber }),
		geo(func(r SubjectResult) ToolRun { return r.Fsam })
}

func timeOrNA(t ToolRun) string {
	if t.TimedOut {
		return "TIMEOUT"
	}
	return t.BuildTime.Round(time.Millisecond).String()
}

func memOrNA(t ToolRun) string {
	if t.TimedOut {
		return "TIMEOUT"
	}
	return fmtBytes(t.BuildMem)
}

func fpOrNA(t ToolRun) string {
	if t.TimedOut {
		return "NA"
	}
	return fmt.Sprintf("%.1f%% / %d", t.FPRate(), t.Reports)
}

func naInt(v int) string {
	if v < 0 {
		return "NA"
	}
	return fmt.Sprintf("%d", v)
}

// PrintHotpath renders the hot-path representation comparison: allocation
// and wall cost per operation of the four measured hot paths, with the
// recorded pre-overhaul baseline alongside when it applies.
func PrintHotpath(w io.Writer, r HotpathResult) {
	fmt.Fprintf(w, "Hotpath — representation cost per op (%d-line subject)\n", r.Lines)
	fmt.Fprintf(w, "%-16s %14s %14s %14s\n", "section", "allocs/op", "B/op", "ns/op")
	row := func(name string, s HotpathSection) {
		fmt.Fprintf(w, "%-16s %14d %14d %14d\n", name, s.AllocsPerOp, s.BytesPerOp, s.NsPerOp)
	}
	row("guard-construct", r.Current.GuardConstruct)
	row("pta-fixpoint", r.Current.PTAFixpoint)
	row("datadep", r.Current.DataDep)
	row("interference", r.Current.Interference)
	if r.Baseline != nil {
		fmt.Fprintln(w, "pre-overhaul baseline (recorded):")
		row("guard-construct", r.Baseline.GuardConstruct)
		row("pta-fixpoint", r.Baseline.PTAFixpoint)
		row("datadep", r.Baseline.DataDep)
		row("interference", r.Baseline.Interference)
		fmt.Fprintf(w, "alloc reduction: guard-construct %.1fx, pta-fixpoint %.1fx\n",
			r.GuardAllocRatio, r.PTAAllocRatio)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PrintPersist renders the warm-restart experiment: each phase is a fresh
// process, so every reuse in the warm rows was fed from the disk store.
func PrintPersist(w io.Writer, res PersistResult) {
	fmt.Fprintf(w, "Persistent warm state — fresh-process restarts (%d-line subject, best of %d)\n",
		res.Lines, res.Iters)
	fmt.Fprintf(w, "%-12s %12s %18s %14s %11s %12s\n",
		"phase", "latency", "summaries reused", "verdict hits", "disk hits", "disk writes")
	row := func(name string, ph PersistPhase) {
		total := ph.SummaryHits + ph.FuncsReanalyzed
		fmt.Fprintf(w, "%-12s %12s %18s %14d %11d %12d\n",
			name, ph.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", ph.SummaryHits, total),
			ph.VerdictHits, ph.DiskHits, ph.DiskWrites)
	}
	row("cold", res.Cold)
	row("warm", res.Warm)
	row("edited-cold", res.EditedCold)
	row("edited-warm", res.EditedWarm)
	fmt.Fprintf(w, "restart speedup: %.2fx; store: %d entries, %d bytes\n",
		res.Speedup, res.Warm.DiskEntries, res.Warm.DiskBytes)
	fmt.Fprintf(w, "warm byte-identical to cold: %v; edited pair identical: %v; summary reuse after edit+restart: %.2f\n",
		res.Identical, res.EditedIdentical, res.SummaryReuse)
}

// PrintSessions renders the edit-native session experiment: per-edit
// session-vs-rerun latency, the representation-only fast path, and the
// two hard gates (fold identity, median advantage).
func PrintSessions(w io.Writer, res SessionsResult) {
	fmt.Fprintf(w, "Live sessions — per-edit delta vs full warm re-run (%d-line subject, %d edits)\n",
		res.Lines, res.Edits)
	fmt.Fprintf(w, "open (full analysis): %v\n", res.OpenTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-5s %-8s %12s %12s %12s %7s %9s %10s\n",
		"seq", "kind", "session", "rerun", "invalidated", "added", "resolved", "unchanged")
	for _, s := range res.Samples {
		kind := "real"
		if s.Trivial {
			kind = "trivial"
		}
		fmt.Fprintf(w, "%-5d %-8s %12s %12s %12d %7d %9d %10d\n",
			s.Seq, kind,
			s.SessionTime.Round(time.Microsecond).String(),
			s.RerunTime.Round(time.Microsecond).String(),
			s.Invalidated, s.Added, s.Resolved, s.Unchanged)
	}
	fmt.Fprintf(w, "stream medians: session=%v rerun=%v (%.2fx per-edit advantage)\n",
		res.SessionMedian.Round(time.Microsecond), res.RerunMedian.Round(time.Microsecond), res.Speedup)
	fmt.Fprintf(w, "re-analyzing rounds only: session=%v rerun=%v; representation-only rounds: %v\n",
		res.RealMedian.Round(time.Microsecond), res.RealRerunMedian.Round(time.Microsecond),
		res.TrivialMedian.Round(time.Microsecond))
	fmt.Fprintf(w, "folded deltas byte-identical to cold analysis of final source: %v\n", res.FoldIdentical)
}

// Package core implements Canary's primary contribution: the thread-modular
// dependence analysis that builds the interference-aware guarded value-flow
// graph (PLDI 2021, §4), and the guarded source–sink reachability checking
// that detects inter-thread value-flow bugs over it (§5).
//
// The two analysis phases follow the paper's Alg. 1 and Alg. 2:
//
//  1. Data dependence (Alg. 1): per-thread, flow-sensitive, path-guarded
//     points-to computation over the partial-SSA IR; top-level points-to
//     facts live in a global guarded points-to graph, address-taken state is
//     propagated through the (acyclic, bounded) CFG, and indirect
//     store→load flows become guarded dd edges in the VFG.
//
//  2. Interference dependence (Alg. 2): an escape analysis seeds the set of
//     escaped objects (objects passed to forks and globals), the
//     pointed-to-by sets Pted(o) are read off the VFG by guarded
//     reachability, and cross-thread store/load pairs over a common escaped
//     object — filtered by the MHP analysis (§6) — become interference
//     edges. New edges enlarge points-to facts, escaped-object sets, and
//     Pted sets, so the whole pipeline iterates to a fixed point
//     (the cyclic dependence the paper notes) without ever running an
//     exhaustive whole-program pointer analysis.
package core

import (
	"context"
	"time"

	"canary/internal/failpoint"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/mhp"
	"canary/internal/vfg"
)

// BuildOptions configures VFG construction.
type BuildOptions struct {
	// EnableMHP prunes non-may-happen-in-parallel store/load pairs during
	// the interference analysis (§6). On by default via DefaultBuild.
	EnableMHP bool
	// GuardCap widens any guard whose formula grows beyond this many nodes
	// to true (a sound overapproximation that keeps guards small).
	GuardCap int
	// MaxIterations bounds the outer Alg. 1/Alg. 2 fixpoint defensively.
	MaxIterations int
	// Workers is the size of the pool the per-thread Alg. 1 passes and the
	// Alg. 2 interference-pair guards are partitioned over inside each
	// fixpoint iteration. <= 0 means one worker per logical CPU. The graph
	// produced is byte-identical for every worker count (see parallel.go).
	Workers int
	// SummaryHits and FuncsReanalyzed report the delta path taken by the
	// summarize step that preceded lowering (canary.Session's digest-keyed
	// summary store): how many functions' Trans(F) summaries were loaded
	// unchanged, and how many re-entered the fixpoint. The builder copies
	// them into BuildStats; a cold (session-less) build reanalyzes every
	// function. They do not alter the build itself — the graph is
	// byte-identical either way.
	SummaryHits     int
	FuncsReanalyzed int
}

// DefaultBuild mirrors the paper's configuration.
func DefaultBuild() BuildOptions {
	return BuildOptions{EnableMHP: true, GuardCap: 96, MaxIterations: 32}
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.GuardCap <= 0 {
		o.GuardCap = 96
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 32
	}
	return o
}

// BuildStats reports VFG-construction work, used by the evaluation.
type BuildStats struct {
	Iterations        int
	DirectEdges       int
	DataDepEdges      int
	InterferenceEdges int
	// FilteredEdges counts candidate dependence edges refuted at
	// construction time by the semi-decision guard filter (§5.2, opt. 1):
	// the Fig. 2 θ1 ∧ ¬θ1 edge lands here.
	FilteredEdges  int
	EscapedObjects int
	BuildTime      time.Duration
	// ParallelTime is the portion of BuildTime spent inside the parallel
	// regions (per-thread passes and interference-guard evaluation); the
	// remainder is the sequential merge that keeps the graph deterministic.
	ParallelTime time.Duration
	// MHPTime, DataDepTime, and InterferTime split BuildTime by pipeline
	// stage: the MHP analysis (§6), the Alg. 1 data-dependence passes
	// (snapshot passes plus the deterministic merge, summed over fixpoint
	// iterations), and the Alg. 2 escape + interference passes. They feed
	// the per-stage trace spans; like every duration here they are outside
	// the determinism contract.
	MHPTime      time.Duration
	DataDepTime  time.Duration
	InterferTime time.Duration
	// GuardCacheHits counts guard hash-cons hits during this build: formula
	// constructions that returned an already-interned node instead of
	// allocating a new one.
	GuardCacheHits uint64
	// SummaryHits / FuncsReanalyzed mirror BuildOptions: the incremental
	// summarize step's reuse split (hits + reanalyzed = total functions).
	SummaryHits     int
	FuncsReanalyzed int
	// FixpointExhausted reports that the outer fixpoint stopped at
	// MaxIterations while still making progress — the graph is a sound
	// under-approximation of the converged one, and results derived from
	// it are flagged degraded rather than silently final.
	FixpointExhausted bool
}

// Builder holds the state of the two dependence analyses and the resulting
// interference-aware VFG.
type Builder struct {
	Prog *ir.Program
	G    *vfg.Graph
	MHP  *mhp.Info
	opt  BuildOptions

	// pts is the guarded top-level points-to graph PG_top: variable →
	// object → condition.
	pts map[ir.VarID]map[ir.ObjID]*guard.Formula
	// ptsItems counts (var, obj) pairs, to detect fixpoint progress
	// item-wise (guard refinement alone does not retrigger iteration).
	ptsItems int

	// escaped is the EspObj set of Alg. 2.
	escaped map[ir.ObjID]bool

	// dirty marks, per thread ID, the threads whose inputs changed since
	// their last Alg. 1 pass; only dirty threads are re-analyzed in the
	// outer fixpoint (the thread-modular decomposition that keeps the
	// iteration cheap). See dataDepRound for what dirties a thread.
	dirty []bool
	// passed marks, per thread ID, the threads whose first Alg. 1 pass has
	// been applied; later passes log only points-to-dependent effects.
	passed []bool
	// useThreads maps a variable to the threads that use it (beyond its
	// defining thread) — new facts for the variable dirty those threads.
	useThreads map[ir.VarID][]int

	// Precomputed instruction lists reused across fixpoint iterations.
	storeInsts []*ir.Inst
	loadInsts  []*ir.Inst

	Stats BuildStats
}

// Build runs the full thread-modular dependence analysis and returns the
// builder holding the interference-aware VFG.
func Build(prog *ir.Program, opt BuildOptions) *Builder {
	b, _ := BuildContext(context.Background(), prog, opt)
	return b
}

// BuildContext is Build with cooperative cancellation: the outer
// Alg. 1/Alg. 2 fixpoint checks ctx between rounds and aborts with ctx's
// error (context.Canceled or context.DeadlineExceeded) when it is done.
// A round in flight always runs to completion — the checkpoints sit at the
// deterministic sequential merge points, so a canceled build never leaves
// a half-applied effect log behind; the partially built graph is simply
// discarded (nil is returned alongside the error).
func BuildContext(ctx context.Context, prog *ir.Program, opt BuildOptions) (*Builder, error) {
	opt = opt.withDefaults()
	mhpStart := time.Now()
	b := newBuilder(prog, opt)
	b.Stats.MHPTime = time.Since(mhpStart)
	b.Stats.SummaryHits = opt.SummaryHits
	b.Stats.FuncsReanalyzed = opt.FuncsReanalyzed
	workers := workerCount(opt.Workers)
	hits0, _ := guard.InternStats()
	start := time.Now()
	converged := false
	for iter := 0; iter < opt.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ferr := failpoint.Inject(failpoint.SiteBuildFixpoint); ferr != nil {
			return nil, ferr
		}
		b.Stats.Iterations++
		// Phase 1 (Alg. 1): intra-thread data dependence over the dirty
		// threads.
		dstart := time.Now()
		progressed := b.dataDepRound(workers)
		b.Stats.DataDepTime += time.Since(dstart)
		// Phase 2 (Alg. 2): escape + interference dependence.
		istart := time.Now()
		b.escapeAnalysis()
		if b.interferencePass(workers) {
			progressed = true
		}
		b.Stats.InterferTime += time.Since(istart)
		if !progressed {
			converged = true
			break
		}
	}
	b.Stats.FixpointExhausted = !converged
	b.Stats.BuildTime = time.Since(start)
	hits1, _ := guard.InternStats()
	b.Stats.GuardCacheHits = hits1 - hits0
	b.Stats.EscapedObjects = len(b.escaped)
	for kind, n := range b.G.EdgeCountByKind() {
		switch kind {
		case vfg.EdgeDirect, vfg.EdgeObj:
			b.Stats.DirectEdges += n
		case vfg.EdgeDD:
			b.Stats.DataDepEdges += n
		case vfg.EdgeInterference:
			b.Stats.InterferenceEdges += n
		}
	}
	return b, nil
}

// newBuilder allocates a Builder over prog with its indexes (MHP info,
// store/load lists, cross-thread use map) built and every thread dirty,
// ready for the first fixpoint round.
func newBuilder(prog *ir.Program, opt BuildOptions) *Builder {
	b := &Builder{
		Prog:       prog,
		G:          vfg.New(prog),
		MHP:        mhp.Analyze(prog),
		opt:        opt,
		pts:        make(map[ir.VarID]map[ir.ObjID]*guard.Formula),
		escaped:    make(map[ir.ObjID]bool),
		useThreads: make(map[ir.VarID][]int),
	}
	b.indexProgram()
	b.resetSchedule()
	return b
}

// cap widens oversized guards to true (sound for may-analyses).
func (b *Builder) cap(f *guard.Formula) *guard.Formula {
	if f.Size() > b.opt.GuardCap {
		return guard.True()
	}
	return f
}

// indexProgram precomputes the store/load lists and the cross-thread use
// map.
func (b *Builder) indexProgram() {
	addUse := func(v ir.VarID, thread int) {
		if v == 0 {
			return
		}
		def := b.Prog.Var(v).Def
		if def != ir.NoLabel && b.Prog.Inst(def).Thread == thread {
			return // same-thread use: covered by the defining thread's pass
		}
		for _, t := range b.useThreads[v] {
			if t == thread {
				return
			}
		}
		b.useThreads[v] = append(b.useThreads[v], thread)
	}
	for _, inst := range b.Prog.Insts() {
		switch inst.Op {
		case ir.OpStore:
			b.storeInsts = append(b.storeInsts, inst)
		case ir.OpLoad:
			b.loadInsts = append(b.loadInsts, inst)
		}
		addUse(inst.Val, inst.Thread)
		addUse(inst.Ptr, inst.Thread)
		for _, op := range inst.Ops {
			addUse(op, inst.Thread)
		}
	}
}

// resetSchedule marks every thread dirty and not yet passed: the state of
// the first fixpoint round.
func (b *Builder) resetSchedule() {
	n := len(b.Prog.Threads)
	b.dirty = make([]bool, n)
	b.passed = make([]bool, n)
	for i := range b.dirty {
		b.dirty[i] = true
	}
}

// markUses flags the threads other than v's defining one that read v: they
// must re-run Alg. 1 because v gained a points-to fact.
func (b *Builder) markUses(v ir.VarID) {
	for _, t := range b.useThreads[v] {
		b.dirty[t] = true
	}
}

// ptsAdd joins (o, g) into pts(v); it reports whether the pair is new.
// Marking the threads the new pair dirties is left to the caller.
func (b *Builder) ptsAdd(v ir.VarID, o ir.ObjID, g *guard.Formula) bool {
	if g.IsFalse() {
		return false
	}
	m := b.pts[v]
	if m == nil {
		m = make(map[ir.ObjID]*guard.Formula)
		b.pts[v] = m
	}
	if old, ok := m[o]; ok {
		m[o] = b.cap(guard.Or(old, g))
		return false
	}
	m[o] = b.cap(g)
	b.ptsItems++
	return true
}

// Pts returns the guarded points-to set of v (may be nil; callers must not
// modify it).
func (b *Builder) Pts(v ir.VarID) map[ir.ObjID]*guard.Formula { return b.pts[v] }

// Escaped reports whether object o escaped its thread.
func (b *Builder) Escaped(o ir.ObjID) bool { return b.escaped[o] }

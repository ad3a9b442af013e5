package main

import (
	"context"
	"fmt"

	"canary"
	"canary/internal/cache"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/pta"
	"canary/internal/smt"
)

// replica stands in for a canary.Session's warm stores when a replay must
// see the same hits the traced operation saw: a fresh summary store and
// verdict store with the Session's default bounds, fed the same revisions.
type replica struct {
	summaries *pta.Store
	verdicts  *smt.VerdictStore
}

func newReplica() *replica {
	return &replica{summaries: pta.NewStore(0), verdicts: smt.NewVerdictStore(0)}
}

// parseLayer times lang.Parse.
func parseLayer(tr *tracer, parent spanID, src string) (*lang.Program, error) {
	s := tr.start("lang.parse", parent)
	defer tr.end(s)
	return lang.Parse(src)
}

// keysLayer times digest.SummaryKeys.
func keysLayer(tr *tracer, parent spanID, ast *lang.Program) map[string]cache.Key {
	s := tr.start("digest.keys", parent)
	defer tr.end(s)
	return digest.SummaryKeys(ast)
}

// canonLayer times digest.CanonicalSource.
func canonLayer(tr *tracer, parent spanID, src string) string {
	s := tr.start("digest.canon", parent)
	defer tr.end(s)
	return digest.CanonicalSource(src)
}

// analyzeLayers runs one parsed revision through the rest of the pipeline
// the way a canary analysis does — summaries, lowering, the VFG build and
// the check — with each call a span under parent, and returns the
// reported source functions. keys and rep are nil for a session-less
// analysis. After the check it re-runs the build sequentially through the
// core bench hooks to split its time into data dependence and
// interference; that re-run is its own span, outside the operation's
// accounting.
func analyzeLayers(tr *tracer, parent spanID, ast *lang.Program, keys map[string]cache.Key, rep *replica, opt canary.Options) ([]string, error) {
	ctx := context.Background()
	var store *pta.Store
	var verdicts *smt.VerdictStore
	if rep != nil {
		store, verdicts = rep.summaries, rep.verdicts
	}
	gh0, gm0 := guard.InternStats()

	s := tr.start("pta.summaries", parent)
	sums, hits, reanalyzed, err := pta.SummariesKeyedContext(ctx, ast, keys, store)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}

	s = tr.start("ir.lower", parent)
	prog, err := ir.Lower(ast, ir.Options{
		UnrollDepth: opt.UnrollDepth,
		InlineDepth: opt.InlineDepth,
		Entry:       opt.Entry,
		Summaries:   sums,
	})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}

	bopt := core.BuildOptions{
		EnableMHP:       opt.EnableMHP,
		GuardCap:        opt.GuardCap,
		MaxIterations:   opt.Budgets.MaxFixpointRounds,
		Workers:         opt.Workers,
		SummaryHits:     hits,
		FuncsReanalyzed: reanalyzed,
	}
	s = tr.start("core.build", parent)
	b, err := core.BuildContext(ctx, prog, bopt)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}

	s = tr.start("core.check", parent)
	reports, st, err := b.CheckContext(ctx, core.CheckOptions{
		Checkers:           opt.Checkers,
		RequireInterThread: opt.RequireInterThread,
		LockOrder:          opt.LockOrder,
		CondVarOrder:       opt.CondVarOrder,
		MemoryModel:        core.MemSC,
		FactPropagation:    opt.FactPropagation,
		Workers:            opt.Workers,
		CubeAndConquer:     opt.CubeAndConquer,
		MaxConflicts:       opt.MaxConflicts,
		Verdicts:           verdicts,
	})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	gh1, gm1 := guard.InternStats()

	if tr != nil {
		tr.add("analyses", 1)
		tr.add("guard.intern_hits", float64(gh1-gh0))
		tr.add("guard.intern_misses", float64(gm1-gm0))
		tr.add("pta.summary_hits", float64(hits))
		tr.add("pta.funcs_reanalyzed", float64(reanalyzed))
		tr.add("ir.insts", float64(prog.NumInsts()))
		tr.add("ir.threads", float64(len(prog.Threads)))
		tr.add("core.fixpoint_rounds", float64(b.Stats.Iterations))
		tr.add("vfg.nodes", float64(b.G.NumNodes()))
		tr.add("vfg.edges", float64(b.G.NumEdges()))
		tr.add("vfg.interference_edges", float64(b.Stats.InterferenceEdges))
		tr.add("check.sources", float64(st.Sources))
		tr.add("check.paths_examined", float64(st.PathsExamined))
		tr.add("smt.queries", float64(st.SolverQueries))
		tr.add("check.trivial_solves", float64(st.TrivialSolves))
		tr.add("check.verdict_hits", float64(st.VerdictHits))
		splitBuild(tr, parent, ast, sums, bopt, opt)
	}

	fns := make([]string, len(reports))
	for i, r := range reports {
		fns[i] = r.Source.Fn
	}
	return fns, nil
}

// splitBuild replays the build's fixpoint through the core bench hooks,
// which run the production data-dependence and interference rounds
// sequentially (Workers=1), timing each kind of round. It lowers the
// program afresh first: a lowered program memoizes CFG reachability, which
// would let a second build over the same program skip work the first one
// paid for.
func splitBuild(tr *tracer, parent spanID, ast *lang.Program, sums map[string]*pta.Summary, bopt core.BuildOptions, opt canary.Options) {
	root := tr.start("split", parent)
	defer tr.end(root)
	prog, err := ir.Lower(ast, ir.Options{
		UnrollDepth: opt.UnrollDepth,
		InlineDepth: opt.InlineDepth,
		Entry:       opt.Entry,
		Summaries:   sums,
	})
	if err != nil {
		return
	}
	bopt.Workers = 1
	s := tr.start("core.index", root)
	b := core.NewBenchBuilder(prog, bopt)
	tr.end(s)
	rounds := bopt.MaxIterations
	if rounds <= 0 {
		rounds = core.DefaultBuild().MaxIterations
	}
	for i := 0; i < rounds; i++ {
		s = tr.start("core.datadep", root)
		dd := b.BenchDataDepRound()
		tr.end(s)
		s = tr.start("core.interference", root)
		in := b.BenchInterferenceRound()
		tr.end(s)
		if !dd && !in {
			return
		}
	}
}

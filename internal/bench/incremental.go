package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"canary"
	"canary/internal/lang"
	"canary/internal/workload"
)

// IncrementalResult measures the one-edit re-analysis scenario: a program
// is analyzed cold, one statement is inserted into one function, and the
// edited program is re-analyzed both cold (no warm state) and warm
// (through a Session primed with the original). The contract under test:
// warm output is byte-identical to cold, strictly fewer functions re-enter
// the summary fixpoint, and the warm latency is lower.
type IncrementalResult struct {
	Lines int
	Iters int
	// Funcs is the number of functions in the edited program;
	// FuncsReanalyzed of the warm run must come in strictly below it.
	Funcs int
	// ColdTime / WarmTime are best-of-iters latencies of analyzing the
	// edited program without and with the primed session.
	ColdTime time.Duration
	WarmTime time.Duration
	Speedup  float64
	// Warm-run reuse counters.
	SummaryHits     int
	FuncsReanalyzed int
	VerdictHits     int
	PairsRechecked  int
	TrivialSolves   int
	// Identical records whether the warm reports rendered byte-identically
	// to the cold ones (the determinism contract).
	Identical bool
}

// incrementalEdit is the statement inserted by the one-function mutation.
const incrementalEdit = "  incpad0 = 1;"

// mutateMain appends one benign statement at the end of main (the last
// function of a generated subject), modelling the smallest real edit: one
// function's body changes, its digest and dependency key change, and the
// program's instruction labels are re-assigned.
func mutateMain(src string) (string, error) {
	i := strings.LastIndex(src, "}")
	if i < 0 || !strings.Contains(src, "func main()") {
		return "", fmt.Errorf("incremental experiment: no main in subject")
	}
	return src[:i] + incrementalEdit + "\n" + src[i:], nil
}

// renderReports folds every observable field of the reports into one
// string, so byte-equality of renders is byte-equality of results.
func renderReports(res *canary.Result) string {
	return fmt.Sprintf("%#v", res.Reports)
}

// RunIncremental measures the cold-vs-warm latency of re-analyzing spec
// after a one-statement edit to main, taking the best of iters runs each
// way. Warm runs get a fresh Session primed (untimed) with the pre-edit
// program, so every iteration replays the identical store state.
func (e *Experiments) RunIncremental(spec workload.Spec, iters int) (IncrementalResult, error) {
	if iters <= 0 {
		iters = 1
	}
	res := IncrementalResult{Lines: spec.Lines, Iters: iters}
	orig := workload.Generate(spec)
	edited, err := mutateMain(orig)
	if err != nil {
		return res, err
	}
	ast, err := lang.Parse(edited)
	if err != nil {
		return res, fmt.Errorf("incremental experiment: edited subject does not parse: %w", err)
	}
	res.Funcs = len(ast.Funcs)
	opt := canary.DefaultOptions()
	// Run with the order-fact closure disabled so realizability decisions
	// actually reach the solver layer: with it on, the synthetic subjects'
	// few candidate paths are all settled by fact propagation or the
	// presolve fast path and the verdict store has nothing to absorb. This
	// is the configuration where cross-run verdict reuse is measurable.
	opt.FactPropagation = false

	var coldRender string
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		cold, err := canary.Analyze(edited, opt)
		d := time.Since(t0)
		if err != nil {
			return res, err
		}
		if i == 0 {
			coldRender = renderReports(cold)
			res.ColdTime = d
		} else if d < res.ColdTime {
			res.ColdTime = d
		}
	}

	for i := 0; i < iters; i++ {
		sess := canary.NewSession()
		if _, err := sess.Analyze(context.Background(), orig, opt); err != nil {
			return res, err
		}
		t0 := time.Now()
		warm, err := sess.Analyze(context.Background(), edited, opt)
		d := time.Since(t0)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.Identical = renderReports(warm) == coldRender
			res.SummaryHits = warm.VFG.SummaryHits
			res.FuncsReanalyzed = warm.VFG.FuncsReanalyzed
			res.VerdictHits = warm.Check.VerdictHits
			res.PairsRechecked = warm.Check.PairsRechecked
			res.TrivialSolves = warm.Check.TrivialSolves
			res.WarmTime = d
		} else if d < res.WarmTime {
			res.WarmTime = d
		}
		e.logf("  incremental iter %d: warm=%v summaries %d/%d reused, %d verdict hits\n",
			i, d.Round(time.Millisecond), warm.VFG.SummaryHits, res.Funcs, warm.Check.VerdictHits)
	}
	if res.WarmTime > 0 {
		res.Speedup = float64(res.ColdTime) / float64(res.WarmTime)
	}
	return res, nil
}

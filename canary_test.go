package canary

import (
	"context"
	"strings"
	"testing"
)

const fig2 = `
func main(a) {
  x = malloc();
  *x = a;
  fork(t, thread1, x);
  if (theta1) {
    c = *x;
    print(*c);
  }
}
func thread1(y) {
  b = malloc();
  if (!theta1) {
    *y = b;
    free(b);
  }
}
`

const buggy = `
func main() {
  x = malloc();
  fork(t, worker, x);
  c = *x;
  print(*c);
}
func worker(y) {
  b = malloc();
  *y = b;
  free(b);
}
`

func TestAnalyzeFig2Clean(t *testing.T) {
	res, err := Analyze(fig2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 0 {
		t.Fatalf("Fig. 2 must be clean, got %v", res.Reports)
	}
	if res.Threads != 2 {
		t.Errorf("threads = %d", res.Threads)
	}
	if res.VFG.Nodes == 0 || res.VFG.Edges == 0 {
		t.Error("VFG stats empty")
	}
	if res.VFG.FilteredEdges == 0 {
		t.Error("the θ1∧¬θ1 edge should be counted as filtered")
	}
}

func TestAnalyzeFindsUAF(t *testing.T) {
	res, err := Analyze(buggy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("want 1 report, got %d", len(res.Reports))
	}
	r := res.Reports[0]
	if r.Kind != CheckUseAfterFree {
		t.Errorf("kind = %q", r.Kind)
	}
	if !r.Decided {
		t.Error("report should be solver-decided")
	}
	if len(r.Trace) == 0 {
		t.Error("report should carry a value-flow trace")
	}
	if s := r.String(); !strings.Contains(s, "use-after-free") {
		t.Errorf("rendering: %q", s)
	}
}

func TestAnalyzeCheckerSelection(t *testing.T) {
	opt := DefaultOptions()
	opt.Checkers = []string{CheckTaintLeak}
	res, err := Analyze(buggy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 0 {
		t.Fatalf("taint checker should not fire on a UAF program: %v", res.Reports)
	}
}

func TestAnalyzeParseError(t *testing.T) {
	if _, err := Analyze("func {", DefaultOptions()); err == nil {
		t.Fatal("want parse error")
	}
}

func TestAnalyzeMissingEntry(t *testing.T) {
	if _, err := Analyze("func other() { }", DefaultOptions()); err == nil {
		t.Fatal("want missing-entry error")
	}
	opt := DefaultOptions()
	opt.Entry = "other"
	if _, err := Analyze("func other() { }", opt); err != nil {
		t.Fatalf("custom entry should work: %v", err)
	}
}

func TestDataRaceAndDeadlockViaAPI(t *testing.T) {
	racy := `
func writer(cell) { v = malloc(); *cell = v; }
func reader(cell) { c = *cell; print(*c); }
func main() {
  cell = malloc();
  seed = malloc();
  *cell = seed;
  fork(t1, writer, cell);
  fork(t2, reader, cell);
}
`
	opt := DefaultOptions()
	opt.Checkers = []string{CheckDataRace}
	res, err := Analyze(racy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("race not reported through the public API")
	}
	if res.Reports[0].Kind != CheckDataRace {
		t.Errorf("kind = %s", res.Reports[0].Kind)
	}

	deadlocky := `
global m1;
global m2;
func left() { lock(m1); lock(m2); unlock(m2); unlock(m1); }
func right() { lock(m2); lock(m1); unlock(m1); unlock(m2); }
func main() { fork(t1, left); fork(t2, right); }
`
	opt.Checkers = []string{CheckDeadlock}
	res, err = Analyze(deadlocky, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("deadlock reports = %d", len(res.Reports))
	}
	if got := ExtendedCheckers(); len(got) != 2 {
		t.Errorf("ExtendedCheckers = %v", got)
	}
}

func TestAllCheckersList(t *testing.T) {
	cs := AllCheckers()
	if len(cs) != 4 {
		t.Fatalf("want 4 checkers, got %v", cs)
	}
	// The returned slice is a copy: mutating it must not affect the next call.
	cs[0] = "mutated"
	if AllCheckers()[0] == "mutated" {
		t.Fatal("AllCheckers must return a copy")
	}
}

func TestAnalyzeParallelAndCube(t *testing.T) {
	opt := DefaultOptions()
	opt.Workers = 4
	opt.CubeAndConquer = true
	res, err := Analyze(buggy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("parallel config changed the verdict: %d reports", len(res.Reports))
	}
}

func TestAnalysisReuse(t *testing.T) {
	// One build, several checker rounds — the VFG is shared.
	ctx := context.Background()
	a, err := NewSession().NewAnalysis(ctx, buggy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	uaf, err := a.Check(ctx, CheckUseAfterFree)
	if err != nil {
		t.Fatal(err)
	}
	if len(uaf.Reports) != 1 {
		t.Fatalf("uaf round: %d reports", len(uaf.Reports))
	}
	taint, err := a.Check(ctx, CheckTaintLeak)
	if err != nil {
		t.Fatal(err)
	}
	if len(taint.Reports) != 0 {
		t.Fatalf("taint round should be clean: %v", taint.Reports)
	}
	races, err := a.Check(ctx, CheckDataRace)
	if err != nil {
		t.Fatal(err)
	}
	if len(races.Reports) == 0 {
		t.Fatal("race round should fire on the unsynchronized pair")
	}
	// Rounds share VFG stats.
	if uaf.VFG.Edges != taint.VFG.Edges {
		t.Error("rounds must share the same graph")
	}
	// The DOT export works from the same analysis.
	var sb strings.Builder
	if err := a.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph vfg") {
		t.Error("DOT export malformed")
	}
}

func TestScheduleExposedInAPI(t *testing.T) {
	res, err := Analyze(buggy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || len(res.Reports[0].Schedule) < 3 {
		t.Fatalf("witness schedule missing: %+v", res.Reports)
	}
	for _, step := range res.Reports[0].Schedule {
		if !strings.Contains(step, "thread") {
			t.Errorf("schedule step missing thread annotation: %q", step)
		}
	}
}

func TestUnknownVerdictKeptAsPotentialBug(t *testing.T) {
	// A tiny solver budget can leave a query undecided; the soundy choice
	// keeps it as a (flagged) report rather than dropping it. With the
	// fact-propagation fast path disabled the query must reach the solver.
	opt := DefaultOptions()
	opt.MaxConflicts = 1
	opt.FactPropagation = false
	res, err := Analyze(buggy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("want the report kept, got %d", len(res.Reports))
	}
	// Whether the budget sufficed is machine-dependent for so simple a
	// query; the Decided flag must simply be consistent with the verdict.
	r := res.Reports[0]
	if !r.Decided && !strings.Contains(r.String(), "potential bug") {
		t.Errorf("undecided report should say so: %s", r.String())
	}
}

func TestBadMemoryModelRejectedEarly(t *testing.T) {
	opt := DefaultOptions()
	opt.MemoryModel = "alpha"
	if _, err := NewSession().NewAnalysis(context.Background(), buggy, opt); err == nil {
		t.Fatal("bad memory model must be rejected")
	}
}

func TestCheckStatsPopulated(t *testing.T) {
	res, err := Analyze(buggy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Check.Sources == 0 {
		t.Errorf("check stats empty: %+v", res.Check)
	}
	// The query is decided either by the order-fact closure or by the
	// solver; one of the two must have done the work.
	if res.Check.FactDecided+res.Check.SolverQueries == 0 {
		t.Errorf("no decision procedure ran: %+v", res.Check)
	}
}

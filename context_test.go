package canary

import (
	"context"
	"errors"
	"testing"
	"time"
)

const ctxTestProgram = `
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

// TestAnalyzeContextCanceled locks in the cancellation contract: an
// already-canceled context aborts the analysis with an error that matches
// both ErrCanceled and the concrete context cause, and never returns a
// partial result.
func TestAnalyzeContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cold *Session
	res, err := cold.Analyze(ctx, ctxTestProgram, DefaultOptions())
	if res != nil {
		t.Fatalf("canceled analysis returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the chain, got %v", err)
	}
}

// TestAnalyzeContextDeadline asserts deadline errors are distinguishable
// from plain cancellation.
func TestAnalyzeContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var cold *Session
	_, err := cold.Analyze(ctx, ctxTestProgram, DefaultOptions())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded in the chain, got %v", err)
	}
}

// TestCheckContextCanceled exercises the checking-stage checkpoints over an
// already-built VFG.
func TestCheckContextCanceled(t *testing.T) {
	var cold *Session
	a, err := cold.NewAnalysis(context.Background(), ctxTestProgram, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Check(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from Check, got %v", err)
	}
	// The analysis is reusable after a canceled round.
	res, err := a.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("want 1 report after the canceled round, got %d", len(res.Reports))
	}
}

// TestWarmSessionCancellation covers the warm-path checkpoints the cold
// tests above cannot reach: a canceled build observes the summary-store
// fixpoint's context check, a canceled recheck observes the verdict
// replay path's, and after both aborts the session still produces output
// byte-identical to its cold run.
func TestWarmSessionCancellation(t *testing.T) {
	sess := NewSession()
	cold, err := sess.Analyze(context.Background(), ctxTestProgram, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := sess.Analyze(ctx, ctxTestProgram, DefaultOptions()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("warm build: want ErrCanceled, got %v", err)
	}
	a, err := sess.NewAnalysis(context.Background(), ctxTestProgram, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Check(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("warm recheck: want ErrCanceled, got %v", err)
	}

	warm, err := sess.Analyze(context.Background(), ctxTestProgram, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Reports) != len(cold.Reports) {
		t.Fatalf("canceled rounds changed the warm output: cold %d reports, warm %d",
			len(cold.Reports), len(warm.Reports))
	}
	for i := range warm.Reports {
		if warm.Reports[i].String() != cold.Reports[i].String() {
			t.Errorf("report %d differs after canceled rounds:\ncold: %s\nwarm: %s",
				i, cold.Reports[i], warm.Reports[i])
		}
	}
}

// TestAnalyzeContextBackground asserts the session path under
// context.Background() — the path package-level Analyze delegates to —
// runs the analysis to completion.
func TestAnalyzeContextBackground(t *testing.T) {
	var cold *Session
	res, err := cold.Analyze(context.Background(), ctxTestProgram, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Kind != CheckUseAfterFree {
		t.Fatalf("unexpected reports: %+v", res.Reports)
	}
}

// TestSubmissionKeyCanonicalization pins the key contract SubmissionKey
// promises to the result cache.
func TestSubmissionKeyCanonicalization(t *testing.T) {
	opt := DefaultOptions()
	base := SubmissionKey(ctxTestProgram, opt)

	// Representation-only edits share the key.
	reformatted := stringsReplaceLineEndings(ctxTestProgram)
	if SubmissionKey(reformatted, opt) != base {
		t.Error("CRLF + trailing-blank canonicalization should not change the key")
	}

	// Workers never changes the output, so it never changes the key.
	w := opt
	w.Workers = 7
	if SubmissionKey(ctxTestProgram, w) != base {
		t.Error("Workers must be excluded from the key")
	}

	// A nil checker list is the explicit default set, in any order.
	c1, c2 := opt, opt
	c1.Checkers = AllCheckers()
	c2.Checkers = []string{CheckTaintLeak, CheckNullDeref, CheckDoubleFree, CheckUseAfterFree}
	if SubmissionKey(ctxTestProgram, c1) != base || SubmissionKey(ctxTestProgram, c2) != base {
		t.Error("nil / default / reordered checker lists should share the key")
	}

	// Semantics-bearing options split the key.
	for name, mut := range map[string]func(*Options){
		"source":       nil,
		"unroll":       func(o *Options) { o.UnrollDepth = 3 },
		"enable-mhp":   func(o *Options) { o.EnableMHP = false },
		"memory model": func(o *Options) { o.MemoryModel = "tso" },
		"checkers":     func(o *Options) { o.Checkers = []string{CheckTaintLeak} },
		"cube":         func(o *Options) { o.CubeAndConquer = true },
		"conflicts":    func(o *Options) { o.MaxConflicts = 7 },
	} {
		o := opt
		src := ctxTestProgram
		if mut == nil {
			src += "\nfunc extra() { z = malloc(); }\n"
		} else {
			mut(&o)
		}
		if SubmissionKey(src, o) == base {
			t.Errorf("%s change should change the key", name)
		}
	}
}

func stringsReplaceLineEndings(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += line + "   \r\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(lines, cur)
}

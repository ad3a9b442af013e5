package canary

import (
	"bytes"
	"context"
	"testing"
	"time"

	"canary/internal/core"
	"canary/internal/corpus"
	"canary/internal/ir"
	"canary/internal/lang"
)

// spinePrograms returns every checked-in program: the testdata corpus
// and the example programs.
func spinePrograms(t *testing.T) map[string]string {
	t.Helper()
	srcs, err := corpus.Programs(".")
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// TestTraceSpansWithinWall pins the trace's partition contract: the
// stage spans of Result.Trace are disjoint slices of the analysis, so
// their walls sum to no more than the wall time of the Analyze call
// that produced them. A span that also counts a sub-stage's time (the
// vfg span holding the whole build) breaks the bound.
func TestTraceSpansWithinWall(t *testing.T) {
	for path, src := range spinePrograms(t) {
		start := time.Now()
		res, err := Analyze(src, DefaultOptions())
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var sum time.Duration
		for _, sp := range res.Trace {
			sum += sp.Wall
		}
		if sum > wall {
			t.Errorf("%s: trace spans sum to %v, above the %v Analyze wall (ratio %.2f): %+v",
				path, sum, wall, float64(sum)/float64(wall), res.Trace)
		}
	}
}

// TestWriteDotMatchesDirectBuild pins canary -dot's output: the graph an
// Analysis renders, through a nil session and through a warm one, is
// byte-identical to the graph of a direct parse → lower → build.
func TestWriteDotMatchesDirectBuild(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	sess := NewSession()
	for path, src := range spinePrograms(t) {
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		prog, err := ir.Lower(ast, ir.Options{
			UnrollDepth: opt.UnrollDepth,
			InlineDepth: opt.InlineDepth,
			Entry:       opt.Entry,
		})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var want bytes.Buffer
		b := core.Build(prog, core.BuildOptions{EnableMHP: opt.EnableMHP, GuardCap: opt.GuardCap, Workers: opt.Workers})
		if err := b.G.WriteDot(&want); err != nil {
			t.Fatal(err)
		}

		// Through no session, then twice through one session: the second
		// round loads every summary from the warm store.
		for i, s := range []*Session{nil, sess, sess} {
			a, err := s.NewAnalysis(ctx, src, opt)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var got bytes.Buffer
			if err := a.WriteDot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: round %d DOT differs from the direct build:\n got: %s\nwant: %s",
					path, i, got.String(), want.String())
			}
		}
	}
}

package canary

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"canary/internal/digest"
)

// scriptEdits builds the per-file edit script the determinism test
// drives a live session through: a representation-only trailing
// comment, a real statement inserted into main, a whole new function
// appended, and a comment tacked onto the inserted statement (another
// representation-only change, this time mid-file).
func scriptEdits(src string) [][]Edit {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	n := len(lines)
	var script [][]Edit
	script = append(script, []Edit{{Start: n + 1, End: n + 1, Text: "// touched by a live edit\n"}})
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "func main(") {
			script = append(script, []Edit{{Start: i + 2, End: i + 2, Text: "  wv9 = 42;\n"}})
			break
		}
	}
	script = append(script, []Edit{{Start: n + 2, End: n + 2, Text: "func wzx(p) {\n  q = *p;\n}\n"}})
	return script
}

// commentEdit finds the statement e2 inserted and rewrites it with a
// trailing comment — a canonical no-op the session must answer without
// re-analysis.
func commentEdit(src string) ([]Edit, bool) {
	for i, l := range strings.Split(strings.TrimSuffix(src, "\n"), "\n") {
		if strings.TrimSpace(l) == "wv9 = 42;" {
			return []Edit{{Start: i + 1, End: i + 2, Text: "  wv9 = 42; // still here\n"}}, true
		}
	}
	return nil, false
}

// TestSessionDeltaDeterminism is the live-session contract, pinned over
// the whole corpus: drive a session through a script of edits, fold
// every emitted FindingsDelta into an accumulated report list, and
// require that list to stay identical to the session's own snapshot at
// every step — and, at the end, byte-identical (Go representation and
// JSON encoding both) to a cold full analysis of the final source.
// Representation-only edits must short-circuit without re-analysis.
func TestSessionDeltaDeterminism(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	opt := DefaultOptions()
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)

			sess := NewSession()
			live, d, err := sess.OpenLive(context.Background(), src, opt, LiveConfig{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer live.Close()
			folded, err := FoldDelta(nil, d)
			if err != nil {
				t.Fatalf("folding open delta: %v", err)
			}

			expected := src // mirror of what the session should hold
			apply := func(step int, edits []Edit, wantReanalyze bool) {
				t.Helper()
				d, err := live.ApplyEdits(context.Background(), edits)
				if err != nil {
					t.Fatalf("step %d: ApplyEdits: %v", step, err)
				}
				if d.Reanalyzed != wantReanalyze {
					t.Fatalf("step %d: Reanalyzed=%v, want %v (delta %+v)",
						step, d.Reanalyzed, wantReanalyze, d)
				}
				folded, err = FoldDelta(folded, d)
				if err != nil {
					t.Fatalf("step %d: FoldDelta: %v", step, err)
				}
				if !reflect.DeepEqual(folded, live.Reports()) {
					t.Fatalf("step %d: folded deltas diverge from session snapshot:\nfolded: %+v\nlive:   %+v",
						step, folded, live.Reports())
				}
				var dEdits []digest.Edit
				for _, e := range edits {
					dEdits = append(dEdits, digest.Edit{Start: e.Start, End: e.End, Text: e.Text})
				}
				expected, err = digest.ApplyEdits(expected, dEdits)
				if err != nil {
					t.Fatalf("step %d: mirror ApplyEdits: %v", step, err)
				}
				if live.Source() != expected {
					t.Fatalf("step %d: session source diverged from mirror:\nsession: %q\nmirror:  %q",
						step, live.Source(), expected)
				}
			}

			script := scriptEdits(src)
			apply(0, script[0], false) // trailing comment: representation-only
			for i, edits := range script[1:] {
				apply(i+1, edits, true)
			}
			if ce, ok := commentEdit(live.Source()); ok {
				apply(len(script), ce, false) // mid-file comment: representation-only
			}

			// The accumulated state must be indistinguishable from never
			// having had a session at all: a cold analysis of the final
			// source, in a fresh process state as far as the caller can
			// tell, yields the same reports byte for byte.
			cold, err := Analyze(live.Source(), opt)
			if err != nil {
				t.Fatalf("cold analysis of final source: %v", err)
			}
			if !reflect.DeepEqual(folded, cold.Reports) {
				t.Fatalf("session reports != cold reports:\nsession: %+v\ncold:    %+v",
					folded, cold.Reports)
			}
			if fmt.Sprintf("%#v", folded) != fmt.Sprintf("%#v", cold.Reports) {
				t.Fatalf("session and cold reports differ in Go representation")
			}
			sj, _ := json.Marshal(folded)
			cj, _ := json.Marshal(cold.Reports)
			if string(sj) != string(cj) {
				t.Fatalf("session and cold reports differ in JSON:\nsession: %s\ncold:    %s", sj, cj)
			}
		})
	}
}

// TestLiveSessionRaceHammer16 opens 16 live sessions concurrently over
// one shared (warm) Session and drives each through the edit script.
// Run under -race (make check does), this is the proof the live engine
// and the process-wide warm stores compose: per-session state is
// goroutine-confined, shared stores are synchronized, and every
// session's folded deltas still match its own snapshot.
func TestLiveSessionRaceHammer16(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	// A handful of files is enough contention; 16 goroutines per file
	// set would just burn time.
	if len(files) > 4 {
		files = files[:4]
	}
	opt := DefaultOptions()
	sess := NewSession()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := os.ReadFile(files[g%len(files)])
			if err != nil {
				errs <- err
				return
			}
			live, d, err := sess.OpenLive(context.Background(), string(data), opt, LiveConfig{})
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: Open: %w", g, err)
				return
			}
			defer live.Close()
			folded, err := FoldDelta(nil, d)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: fold: %w", g, err)
				return
			}
			for _, edits := range scriptEdits(string(data)) {
				d, err := live.ApplyEdits(context.Background(), edits)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: ApplyEdits: %w", g, err)
					return
				}
				folded, err = FoldDelta(folded, d)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: fold: %w", g, err)
					return
				}
			}
			if !reflect.DeepEqual(folded, live.Reports()) {
				errs <- fmt.Errorf("goroutine %d: folded deltas diverge from snapshot", g)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDiffFoldRoundTrip is the algebraic property the wire protocol
// rests on: for any two report lists, FoldDelta(prev, DiffReports(prev,
// next)) reproduces next exactly. Exercised over seeded random lists
// with heavy duplication so the LCS walk sees ambiguous matches.
func TestDiffFoldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mkReport := func(k int) Report {
		return Report{
			Kind:   fmt.Sprintf("kind-%d", k%3),
			Source: Site{Fn: fmt.Sprintf("f%d", k%4), Line: k % 5},
			Sink:   Site{Fn: "sink", Line: k % 7},
			Guard:  fmt.Sprintf("g%d", k%2),
		}
	}
	mkList := func() []Report {
		n := rng.Intn(8)
		out := make([]Report, n)
		for i := range out {
			out[i] = mkReport(rng.Intn(10))
		}
		return out
	}
	for i := 0; i < 500; i++ {
		prev, next := mkList(), mkList()
		d := DiffReports(prev, next)
		got, err := FoldDelta(prev, d)
		if err != nil {
			t.Fatalf("case %d: FoldDelta: %v (prev=%+v next=%+v delta=%+v)", i, err, prev, next, d)
		}
		if len(got) != len(next) || (len(next) > 0 && !reflect.DeepEqual(got, next)) {
			t.Fatalf("case %d: round trip lost fidelity:\nprev: %+v\nnext: %+v\ngot:  %+v", i, prev, next, got)
		}
		if d.Unchanged+len(d.Added) != len(next) {
			t.Fatalf("case %d: delta arithmetic broken: unchanged %d + added %d != %d",
				i, d.Unchanged, len(d.Added), len(next))
		}
	}
}

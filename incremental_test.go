package canary

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"canary/internal/lang"
)

// mutateCorpus inserts one benign statement at the top of main, the
// one-function edit the incremental path must absorb. Files without the
// anchor return ok=false and are exercised unmutated.
func mutateCorpus(src string) (string, bool) {
	const anchor = "func main() {\n"
	i := strings.Index(src, anchor)
	if i < 0 {
		return src, false
	}
	at := i + len(anchor)
	return src[:at] + "  incpad0 = 1;\n" + src[at:], true
}

// renderFull folds every observable field of a result's reports into one
// string; byte-equality of renders is byte-equality of results.
func renderFull(res *Result) string {
	return fmt.Sprintf("%#v", res.Reports)
}

// TestIncrementalDeterminism runs the whole corpus through the incremental
// path: a session is primed with each original program, the program gets a
// one-statement edit to main, and the warm re-analysis must (a) render
// byte-identically to a cold analysis of the edited program and (b) load
// every function except main's invalidation cone from the summary store.
func TestIncrementalDeterminism(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			orig := string(data)
			edited, mutated := mutateCorpus(orig)
			ast, err := lang.Parse(edited)
			if err != nil {
				t.Fatalf("edited program does not parse: %v", err)
			}
			funcs := len(ast.Funcs)
			opt := DefaultOptions()

			cold, err := Analyze(edited, opt)
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession()
			if _, err := sess.Analyze(context.Background(), orig, opt); err != nil {
				t.Fatal(err)
			}
			warm, err := sess.Analyze(context.Background(), edited, opt)
			if err != nil {
				t.Fatal(err)
			}

			if c, w := renderFull(cold), renderFull(warm); c != w {
				t.Errorf("warm incremental output differs from cold:\n--- cold\n%s\n--- warm\n%s", c, w)
			}
			if got := warm.VFG.SummaryHits + warm.VFG.FuncsReanalyzed; got != funcs {
				t.Errorf("summary accounting: hits %d + reanalyzed %d != %d functions",
					warm.VFG.SummaryHits, warm.VFG.FuncsReanalyzed, funcs)
			}
			if mutated && funcs >= 2 {
				// Editing main invalidates only main's reverse dependency
				// cone; with ≥2 functions some summary must have been reused
				// and strictly fewer than all functions reanalyzed.
				if warm.VFG.FuncsReanalyzed >= funcs {
					t.Errorf("one-function edit reanalyzed all %d functions", funcs)
				}
				if warm.VFG.SummaryHits < 1 {
					t.Errorf("one-function edit reused no summaries (funcs=%d)", funcs)
				}
			}
		})
	}
}

// TestIncrementalRaceHammer shares one Session between 16 goroutines that
// concurrently analyze (a rotation of) corpus programs and their one-edit
// variants, asserting every warm result matches its cold render. Run under
// -race this doubles as the thread-safety check of both warm stores.
func TestIncrementalRaceHammer(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	if len(files) > 6 {
		files = files[:6] // bound the hammer's runtime
	}
	opt := DefaultOptions()
	type variant struct {
		src  string
		want string
	}
	var variants []variant
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		orig := string(data)
		edited, _ := mutateCorpus(orig)
		for _, src := range []string{orig, edited} {
			cold, err := Analyze(src, opt)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{src: src, want: renderFull(cold)})
		}
	}

	sess := NewSession()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(variants); i++ {
				v := variants[(i+w)%len(variants)]
				res, err := sess.Analyze(context.Background(), v.src, opt)
				if err != nil {
					errs <- err
					return
				}
				if got := renderFull(res); got != v.want {
					errs <- fmt.Errorf("worker %d variant %d: warm render differs from cold", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

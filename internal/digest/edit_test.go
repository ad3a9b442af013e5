package digest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"canary/internal/lang"
)

const editBase = "func helper(p) {\n  q = *p;\n  print(*p);\n}\n" +
	"func leaf() {\n  z = 1;\n}\n" +
	"func main() {\n  x = malloc();\n  helper(x);\n  leaf();\n}\n"

func TestApplyEditsBasic(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		edits []Edit
		want  string
	}{
		{"replace-one-line", "a\nb\nc\n", []Edit{{2, 3, "B\n"}}, "a\nB\nc\n"},
		{"insert-before", "a\nb\n", []Edit{{2, 2, "x\ny\n"}}, "a\nx\ny\nb\n"},
		{"append-at-end", "a\nb\n", []Edit{{3, 3, "c\n"}}, "a\nb\nc\n"},
		{"delete-span", "a\nb\nc\nd\n", []Edit{{2, 4, ""}}, "a\nd\n"},
		{"no-trailing-newline-text", "a\nb\n", []Edit{{1, 2, "A"}}, "A\nb\n"},
		{"source-without-final-newline", "a\nb", []Edit{{2, 3, "B\n"}}, "a\nB\n"},
		{"two-disjoint-edits", "a\nb\nc\nd\n", []Edit{{4, 5, "D\n"}, {1, 2, "A\n"}}, "A\nb\nc\nD\n"},
		{"adjacent-edits", "a\nb\nc\n", []Edit{{2, 2, "x\n"}, {2, 3, "B\n"}}, "a\nx\nB\nc\n"},
		{"empty-edit-set", "a\nb\n", nil, "a\nb\n"},
	}
	for _, tc := range cases {
		got, err := ApplyEdits(tc.src, tc.edits)
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %q want %q", tc.name, got, tc.want)
		}
	}
}

func TestApplyEditsRejects(t *testing.T) {
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"zero-start", []Edit{{0, 1, "x\n"}}},
		{"negative-start", []Edit{{-3, 1, "x\n"}}},
		{"inverted-span", []Edit{{3, 2, "x\n"}}},
		{"end-beyond-source", []Edit{{1, 9, "x\n"}}},
		{"start-beyond-source", []Edit{{9, 9, "x\n"}}},
		{"overlapping", []Edit{{1, 3, "x\n"}, {2, 4, "y\n"}}},
		{"duplicate-insertion-point", []Edit{{2, 2, "x\n"}, {2, 2, "y\n"}}},
	}
	src := "a\nb\nc\n"
	for _, tc := range cases {
		if _, err := ApplyEdits(src, tc.edits); err == nil {
			t.Errorf("%s: expected rejection, got none", tc.name)
		}
	}
}

// An edit to one function invalidates exactly its reverse-reachable
// cone: callers re-key because their summary folds in callee digests,
// untouched sibling functions keep their keys.
// applyAndInvalidate applies an edit batch the way a live session does:
// ApplyEdits patches the source, the patch must parse, and Invalidated
// diffs the pre-edit summary keys against the patched revision's.
func applyAndInvalidate(t *testing.T, src string, edits []Edit) (patched string, invalidated []string, err error) {
	t.Helper()
	patched, err = ApplyEdits(src, edits)
	if err != nil {
		return "", nil, err
	}
	old, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("base source: %v", err)
	}
	now, err := lang.Parse(patched)
	if err != nil {
		return "", nil, err
	}
	return patched, Invalidated(SummaryKeys(old), SummaryKeys(now)), nil
}

func TestApplyEditInvalidatesReverseCone(t *testing.T) {
	patched, invalidated, err := applyAndInvalidate(t, editBase, []Edit{{2, 3, "  q = p;\n"}})
	if err != nil {
		t.Fatalf("applyAndInvalidate: %v", err)
	}
	if !strings.Contains(patched, "q = p;") || strings.Contains(patched, "q = *p;") {
		t.Fatalf("patch not applied:\n%s", patched)
	}
	want := []string{"helper", "main"}
	if len(invalidated) != len(want) {
		t.Fatalf("invalidated = %v, want %v", invalidated, want)
	}
	for i := range want {
		if invalidated[i] != want[i] {
			t.Fatalf("invalidated = %v, want %v", invalidated, want)
		}
	}
}

// Comment and whitespace edits change no digest at all.
func TestApplyEditTrivialChangesNothing(t *testing.T) {
	patched, invalidated, err := applyAndInvalidate(t, editBase, []Edit{{1, 1, "// a header comment\n"}})
	if err != nil {
		t.Fatalf("applyAndInvalidate: %v", err)
	}
	if len(invalidated) != 0 {
		t.Fatalf("comment edit invalidated %v", invalidated)
	}
	old, _ := lang.Parse(editBase)
	now, _ := lang.Parse(patched)
	ok, nk := SummaryKeys(old), SummaryKeys(now)
	if len(Invalidated(ok, nk)) != 0 {
		t.Fatal("summary keys drifted on a comment-only edit")
	}
}

// A brand-new function shows up as invalidated (it has no old key) and
// existing functions that do not call it are untouched.
func TestApplyEditNewFunction(t *testing.T) {
	_, invalidated, err := applyAndInvalidate(t, editBase, []Edit{{13, 13, "func extra(v) {\n  w = v;\n}\n"}})
	if err != nil {
		t.Fatalf("applyAndInvalidate: %v", err)
	}
	if len(invalidated) != 1 || invalidated[0] != "extra" {
		t.Fatalf("invalidated = %v, want [extra]", invalidated)
	}
}

func TestApplyEditRejectsUnparsablePatch(t *testing.T) {
	if _, _, err := applyAndInvalidate(t, editBase, []Edit{{1, 2, "func helper(p {\n"}}); err == nil {
		t.Fatal("expected parse rejection of broken patch")
	}
}

// applyEditsReference is ApplyEdits' original definition: split the
// source into lines, splice each edit's lines in bottom-up, join.
func applyEditsReference(src string, edits []Edit) (string, error) {
	var lines []string
	if src != "" {
		lines = strings.Split(src, "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
	}
	sorted := append([]Edit(nil), edits...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	for i, e := range sorted {
		if e.Start < 1 || e.End < e.Start || e.End > len(lines)+1 {
			return "", fmt.Errorf("edit %d out of range", i)
		}
		if i > 0 {
			prev := sorted[i-1]
			if prev.End > e.Start || (prev.Start == e.Start && prev.End == e.End) {
				return "", fmt.Errorf("edits %d and %d overlap", i-1, i)
			}
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		e := sorted[i]
		var repl []string
		if e.Text != "" {
			repl = strings.Split(strings.TrimSuffix(e.Text, "\n"), "\n")
		}
		tail := append([]string(nil), lines[e.End-1:]...)
		lines = append(append(lines[:e.Start-1], repl...), tail...)
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// TestApplyEditsMatchesReference checks the one-pass ApplyEdits against
// the split/splice/join reference on random sources (with and without a
// final newline, with blank and CRLF lines) and random edit sets, invalid
// ones included: both must reject the same sets and agree byte for byte
// on the rest.
func TestApplyEditsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pieces := []string{"a", "bb", "", " // c", "\r", "x = 1;"}
	texts := []string{"", "\n", "T", "T\n", "T\nU", "T\nU\n", "\n\n", "T\r\n"}
	applied := 0
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := r.Intn(6); n > 0; n-- {
			sb.WriteString(pieces[r.Intn(len(pieces))])
			sb.WriteByte('\n')
		}
		src := sb.String()
		if r.Intn(3) == 0 {
			src = strings.TrimSuffix(src, "\n")
		}
		var edits []Edit
		for n := r.Intn(4); n > 0; n-- {
			start := 1 + r.Intn(7)
			edits = append(edits, Edit{Start: start, End: start + r.Intn(3), Text: texts[r.Intn(len(texts))]})
		}
		got, gotErr := ApplyEdits(src, edits)
		want, wantErr := applyEditsReference(src, edits)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ApplyEdits(%q, %v) error %v, reference error %v", src, edits, gotErr, wantErr)
		}
		if gotErr == nil {
			applied++
			if got != want {
				t.Fatalf("ApplyEdits(%q, %v) = %q, reference %q", src, edits, got, want)
			}
		}
	}
	if applied < 5000 {
		t.Fatalf("only %d of 20000 edit sets were valid", applied)
	}
}

package digest

// Edit-native entry points: the incremental layer's public contract is
// "edits in, invalidated cone out". An Edit is a line-span patch against
// the *current* revision of a source; ApplyEdits patches the text and
// ApplyEdit additionally reports which function summaries the patch
// invalidates (the reverse-reachable digest set), which is exactly the
// set a warm Session re-analyzes. Spans are expressed in lines because
// CanonicalSource preserves line structure, so line numbers are stable
// across the canonicalization that all digest keys are computed over.

import (
	"fmt"
	"sort"
	"strings"

	"canary/internal/cache"
	"canary/internal/lang"
)

// Edit replaces the half-open line range [Start, End) of the current
// source with Text. Lines are 1-based; End == Start inserts before line
// Start without removing anything; End == lineCount+1 extends through
// the last line. Text is zero or more complete lines (a trailing
// newline is optional and never produces an extra empty line).
type Edit struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// ApplyEdits patches src with a set of non-overlapping line-span edits,
// all addressed against the same (pre-edit) revision, and returns the
// patched source with a single trailing newline. The edit set is
// validated as a whole before anything is applied: out-of-range spans,
// inverted spans, and overlapping spans reject the entire set, so a
// failed call leaves the caller's revision untouched by construction.
//
// The result is built in one pass into one buffer: the source text
// between edits is copied verbatim, so a one-line save on a large file
// allocates the patched text and nothing else.
func ApplyEdits(src string, edits []Edit) (string, error) {
	if src != "" && !strings.HasSuffix(src, "\n") {
		src += "\n" // every line, the last included, ends in a newline
	}
	n := strings.Count(src, "\n")
	sorted := append([]Edit(nil), edits...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	textLen := 0
	for i, e := range sorted {
		if e.Start < 1 {
			return "", fmt.Errorf("digest: edit %d: start line %d is below 1", i, e.Start)
		}
		if e.End < e.Start {
			return "", fmt.Errorf("digest: edit %d: end line %d precedes start line %d", i, e.End, e.Start)
		}
		if e.End > n+1 {
			return "", fmt.Errorf("digest: edit %d: end line %d is beyond the source (%d lines)", i, e.End, n)
		}
		if i > 0 {
			prev := sorted[i-1]
			// Pure insertions at the same point are order-ambiguous;
			// everything else must cover disjoint spans. An insertion
			// immediately followed by a replacement starting at the same
			// line is fine: the (Start, End) sort puts the insertion
			// first, and it stays first in the output.
			if prev.End > e.Start || (prev.Start == e.Start && prev.End == e.End) {
				return "", fmt.Errorf("digest: edits %d and %d overlap", i-1, i)
			}
		}
		textLen += len(e.Text) + 1
	}
	var out strings.Builder
	out.Grow(len(src) + textLen)
	off, line := 0, 1 // byte offset of the start of source line `line`
	seek := func(to int) {
		for ; line < to; line++ {
			off += strings.IndexByte(src[off:], '\n') + 1
		}
	}
	for _, e := range sorted {
		from := off
		seek(e.Start)
		out.WriteString(src[from:off])
		// Text is zero or more lines; at most one trailing newline is
		// absorbed, and every written line ends in one.
		if e.Text != "" {
			out.WriteString(strings.TrimSuffix(e.Text, "\n"))
			out.WriteByte('\n')
		}
		seek(e.End)
	}
	out.WriteString(src[off:])
	if out.Len() == 0 {
		return "\n", nil
	}
	return out.String(), nil
}

// Invalidated diffs two per-function summary-key maps and returns the
// sorted names whose digest changed or is new — the functions a warm
// session must re-analyze. Because SummaryKeys folds in transitively
// reachable callees, this is the full reverse-reachable cone of the
// edited functions, not just the functions whose bodies moved.
func Invalidated(oldKeys, newKeys map[string]cache.Key) []string {
	var out []string
	for name, nk := range newKeys {
		if ok, exists := oldKeys[name]; !exists || ok != nk {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ApplyEdit patches src, parses both revisions, and returns the patched
// source together with the invalidated reverse-reachable digest set.
// Callers that cache the pre-edit SummaryKeys (the live session engine)
// use ApplyEdits + Invalidated directly and skip the double parse.
func ApplyEdit(src string, edits []Edit) (patched string, invalidated []string, err error) {
	patched, err = ApplyEdits(src, edits)
	if err != nil {
		return "", nil, err
	}
	oldAST, err := lang.Parse(src)
	if err != nil {
		return "", nil, fmt.Errorf("digest: base source: %w", err)
	}
	newAST, err := lang.Parse(patched)
	if err != nil {
		return "", nil, fmt.Errorf("digest: patched source: %w", err)
	}
	return patched, Invalidated(SummaryKeys(oldAST), SummaryKeys(newAST)), nil
}

package digest

import (
	"math/rand"
	"strings"
	"testing"

	"canary/internal/lang"
)

func TestCanonicalSourceRepresentationOnly(t *testing.T) {
	base := "func main() {\n  x = malloc();\n  print(*x);\n}\n"
	variants := []string{
		"func main() {\r\n  x = malloc();\r\n  print(*x);\r\n}\r\n",          // CRLF
		"func main() {  \n  x = malloc();\t\n  print(*x);\n}\n\n\n",          // trailing blanks
		"func main() { // entry\n  x = malloc();\n  print(*x); // show\n}\n", // comment text
		"func main() {\n  x = malloc(); // fresh cell\n  print(*x);\n}",      // no final newline
	}
	want := CanonicalSource(base)
	for i, v := range variants {
		if got := CanonicalSource(v); got != want {
			t.Errorf("variant %d canonicalizes differently:\n%q\nvs\n%q", i, got, want)
		}
	}
	// A real edit must change the canonical text.
	if CanonicalSource(strings.Replace(base, "print(*x)", "free(x)", 1)) == want {
		t.Error("semantic edit did not change the canonical source")
	}
}

func TestCanonicalSourcePreservesLineStructure(t *testing.T) {
	src := "func main() { // c1\n\n  x = malloc();\r\n  print(*x);\n}\n"
	canon := CanonicalSource(src)
	// No line is added or removed (modulo the normalized final newline), so
	// positions inside a cached result stay valid for every alias source.
	srcLines := strings.Split(strings.TrimRight(strings.ReplaceAll(src, "\r\n", "\n"), "\n"), "\n")
	canonLines := strings.Split(strings.TrimRight(canon, "\n"), "\n")
	if len(srcLines) != len(canonLines) {
		t.Fatalf("canonicalization changed the line count: %d -> %d", len(srcLines), len(canonLines))
	}
}

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func funcByName(t *testing.T, prog *lang.Program, name string) *lang.FuncDecl {
	t.Helper()
	for _, f := range prog.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

func TestFuncStructLocalRenameInsensitive(t *testing.T) {
	a := mustParse(t, `
func worker(cell) {
  v = malloc();
  *cell = v;
}
func main() {
  c = malloc();
  fork(t, worker, c);
}
`)
	b := mustParse(t, `
func worker(slot) {
  fresh = malloc();
  *slot = fresh;
}
func main() {
  box = malloc();
  fork(handle, worker, box);
}
`)
	for _, name := range []string{"worker", "main"} {
		ka := FuncStruct(a, funcByName(t, a, name))
		kb := FuncStruct(b, funcByName(t, b, name))
		if ka != kb {
			t.Errorf("%s: local rename changed the structural digest", name)
		}
	}
	// A structural edit must change the digest.
	c := mustParse(t, `
func worker(cell) {
  v = malloc();
  *cell = v;
  free(v);
}
func main() {
  c = malloc();
  fork(t, worker, c);
}
`)
	if FuncStruct(a, funcByName(t, a, "worker")) == FuncStruct(c, funcByName(t, c, "worker")) {
		t.Error("worker: structural edit kept the digest")
	}
}

// TestSummaryKeysInvalidation checks the dependency rule on the chain
// main -> mid -> leaf: editing leaf invalidates every key, editing main
// invalidates only main.
func TestSummaryKeysInvalidation(t *testing.T) {
	src := `
func leaf(p) {
  q = p;
  return q;
}
func mid(p) {
  rv = leaf(p);
  return rv;
}
func main() {
  x = malloc();
  y = mid(x);
  print(*y);
}
`
	orig := SummaryKeys(mustParse(t, src))

	leafEdit := SummaryKeys(mustParse(t, strings.Replace(src, "q = p;", "q = p;\n  print(*q);", 1)))
	for _, name := range []string{"leaf", "mid", "main"} {
		if orig[name] == leafEdit[name] {
			t.Errorf("leaf edit did not invalidate %s", name)
		}
	}

	mainEdit := SummaryKeys(mustParse(t, strings.Replace(src, "print(*y);", "print(*y);\n  print(*x);", 1)))
	if orig["main"] == mainEdit["main"] {
		t.Error("main edit did not invalidate main")
	}
	for _, name := range []string{"leaf", "mid"} {
		if orig[name] != mainEdit[name] {
			t.Errorf("main edit invalidated %s (it should not)", name)
		}
	}

	// Renaming a local anywhere invalidates nothing.
	renamed := SummaryKeys(mustParse(t, strings.ReplaceAll(src, "rv", "res")))
	for _, name := range []string{"leaf", "mid", "main"} {
		if orig[name] != renamed[name] {
			t.Errorf("local rename invalidated %s", name)
		}
	}
}

// TestSummaryKeysRecursion checks that mutually recursive functions get
// stable, distinct keys and that an edit inside the cycle invalidates every
// member of the cycle.
func TestSummaryKeysRecursion(t *testing.T) {
	src := `
func ping(p) {
  r = pong(p);
  return r;
}
func pong(p) {
  r = ping(p);
  return r;
}
func main() {
  x = malloc();
  y = ping(x);
  print(*y);
}
`
	orig := SummaryKeys(mustParse(t, src))
	again := SummaryKeys(mustParse(t, src))
	for name, k := range orig {
		if again[name] != k {
			t.Errorf("%s: key not deterministic across parses", name)
		}
	}
	edit := SummaryKeys(mustParse(t, strings.Replace(src, "r = ping(p);", "r = ping(p);\n  print(*r);", 1)))
	for _, name := range []string{"ping", "pong", "main"} {
		if orig[name] == edit[name] {
			t.Errorf("cycle edit did not invalidate %s", name)
		}
	}
}

// canonicalReference is CanonicalSource's original definition, with an
// explicit CRLF → LF pass before the line split.
func canonicalReference(src string) string {
	lines := strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(lang.StripLineComment(l), " \t\r")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n") + "\n"
}

// checkCanonicalEqual asserts the CanonicalEqual contract on one pair, and
// that CanonicalSource and AppendCanonical still match the reference
// definition.
func checkCanonicalEqual(t *testing.T, a, b string) {
	t.Helper()
	ca, cb := CanonicalSource(a), CanonicalSource(b)
	if ref := canonicalReference(a); ca != ref {
		t.Fatalf("CanonicalSource(%q) = %q, reference %q", a, ca, ref)
	}
	if got, want := CanonicalEqual(a, cb), ca == cb; got != want {
		t.Fatalf("CanonicalEqual(%q, CanonicalSource(%q)) = %v, want %v", a, b, got, want)
	}
	if got := string(AppendCanonical([]byte("pre"), a)); got != "pre"+ca {
		t.Fatalf("AppendCanonical(pre, %q) = %q, want %q", a, got, "pre"+ca)
	}
	if !CanonicalEqual(a, ca) {
		t.Fatalf("CanonicalEqual(%q, its own canonical text) = false", a)
	}
}

// canonFragments are the pieces the property test builds sources from:
// code, blanks, CR/LF/CRLF endings, comment markers, and lone slashes.
var canonFragments = []string{
	"x", "y = 1;", " ", "\t", "\r", "\n", "\n", "\r\n", "\r\n", "//", "// c", "/", "\n\n",
}

func randomCanonSource(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		sb.WriteString(canonFragments[r.Intn(len(canonFragments))])
	}
	return sb.String()
}

// TestCanonicalEqualProperty checks CanonicalEqual(a, CanonicalSource(b))
// == (CanonicalSource(a) == CanonicalSource(b)) on random sources mixing
// CRLF, comments, tabs and trailing blank lines. Half the pairs are one
// source and a representation-only rewrite of it (comments appended,
// endings switched, blank lines added), so equal canonical texts are as
// common as unequal ones.
func TestCanonicalEqualProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	equal := 0
	for i := 0; i < 20000; i++ {
		a := randomCanonSource(r)
		b := randomCanonSource(r)
		if i%2 == 0 {
			b = strings.ReplaceAll(a, "\n", [...]string{"\n", " // n\r\n", "\t\n"}[r.Intn(3)])
			b += [...]string{"", "\n", "\n\r\n\n", " //"}[r.Intn(4)]
		}
		checkCanonicalEqual(t, a, b)
		if CanonicalSource(a) == CanonicalSource(b) {
			equal++
		}
	}
	if equal < 5000 {
		t.Fatalf("only %d of 20000 pairs were canonically equal", equal)
	}
}

// FuzzCanonicalEqual explores the same contract on arbitrary pairs.
func FuzzCanonicalEqual(f *testing.F) {
	f.Add("a // c\r\n\tb\n\n", "a\nb")
	f.Add("", "\n\r\n")
	f.Add("x\r\r\n//\n", "x")
	f.Fuzz(func(t *testing.T, a, b string) { checkCanonicalEqual(t, a, b) })
}

package lang

import (
	"strings"
	"testing"
)

// fig2Source is the motivating example of the paper (Fig. 2a).
const fig2Source = `
func main(a) {
  x = malloc();        // o1
  *x = a;
  fork(t, thread1, x);
  if (theta1) {
    c = *x;
    print(*c);
  }
}

func thread1(y) {
  b = malloc();        // o2
  if (!theta1) {
    *y = b;
    free(b);
  }
}
`

// lexAll pulls tokens from a Lexer up to and including EOF.
func lexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := lexAll("func f(x) { y = *x; }")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFunc, TokIdent, TokLParen, TokIdent, TokRParen,
		TokLBrace, TokIdent, TokAssign, TokStar, TokIdent, TokSemi,
		TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s want %s", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := lexAll("== != <= >= && || < > ! = & * + -")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokEq, TokNeq, TokLe, TokGe, TokAndAnd, TokOrOr,
		TokLt, TokGt, TokNot, TokAssign, TokAmp, TokStar, TokPlus, TokMinus, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s want %s", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := lexAll("x // trailing comment\ny")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Fatalf("comments not skipped: %v", toks)
	}
	if toks[1].Pos.Line != 2 {
		t.Errorf("line tracking broken: %v", toks[1].Pos)
	}
}

func TestTokenizeBadChar(t *testing.T) {
	if _, err := lexAll("x = $;"); err == nil {
		t.Fatal("expected error for '$'")
	}
}

// TestTokenizeOperatorText pins the text of every operator token: the
// lexer slices it out of the source rather than building it.
func TestTokenizeOperatorText(t *testing.T) {
	const src = "== != <= >= && || < > ! = & * + - ( ) { } , ; ."
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(src)
	if len(toks) != len(want)+1 {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want)+1)
	}
	for i, w := range want {
		if toks[i].Text != w || toks[i].Kind.String() != w {
			t.Errorf("token %d: got %s %q, want %q", i, toks[i].Kind, toks[i].Text, w)
		}
	}
}

// TestParseErrorOrder pins which error wins when a source holds both a
// parse error and a bad character: the parser pulls tokens as it goes,
// so whichever comes first in the source is reported.
func TestParseErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"parse error first", "func f() { x = ; }\n$", "1:16: unexpected ;"},
		{"bad character first", "func f() { x = $; }\nfunc", "1:16: unexpected character"},
		{"bad character at top level", "global g;\n$", "2:1: unexpected character"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Parse error = %v, want prefix %q", err, tc.want)
			}
		})
	}
}

func TestParseFig2(t *testing.T) {
	prog, err := Parse(fig2Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("want 2 functions, got %d", len(prog.Funcs))
	}
	main := prog.Func("main")
	if main == nil || len(main.Params) != 1 || main.Params[0] != "a" {
		t.Fatalf("main malformed: %+v", main)
	}
	if len(main.Body.Stmts) != 4 {
		t.Fatalf("main should have 4 statements, got %d", len(main.Body.Stmts))
	}
	if _, ok := main.Body.Stmts[0].(*AssignStmt); !ok {
		t.Errorf("stmt 0 should be assign, got %T", main.Body.Stmts[0])
	}
	if _, ok := main.Body.Stmts[1].(*StoreStmt); !ok {
		t.Errorf("stmt 1 should be store, got %T", main.Body.Stmts[1])
	}
	fork, ok := main.Body.Stmts[2].(*ForkStmt)
	if !ok || fork.Thread != "t" || fork.Callee != "thread1" || len(fork.Args) != 1 {
		t.Errorf("fork malformed: %+v", fork)
	}
	ifs, ok := main.Body.Stmts[3].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 3 should be if, got %T", main.Body.Stmts[3])
	}
	if ifs.Cond.Text() != "theta1" {
		t.Errorf("cond text = %q", ifs.Cond.Text())
	}
	t1 := prog.Func("thread1")
	inner, ok := t1.Body.Stmts[1].(*IfStmt)
	if !ok {
		t.Fatalf("thread1 stmt 1 should be if")
	}
	if inner.Cond.Text() != "!(theta1)" {
		t.Errorf("negated cond text = %q", inner.Cond.Text())
	}
}

func TestParseGlobalsLocksLoops(t *testing.T) {
	src := `
global shared;
global mu;
func main() {
  p = &shared;
  lock(mu);
  *p = p;
  unlock(mu);
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  join(t);
  return;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("want 2 globals, got %d", len(prog.Globals))
	}
	body := prog.Func("main").Body.Stmts
	if _, ok := body[0].(*AssignStmt); !ok {
		t.Errorf("p = &shared should parse as assign")
	}
	if a := body[0].(*AssignStmt); a.RHS.Text() != "&shared" {
		t.Errorf("addr expr text = %q", a.RHS.Text())
	}
	if _, ok := body[1].(*LockStmt); !ok {
		t.Errorf("lock stmt missing")
	}
	if _, ok := body[3].(*UnlockStmt); !ok {
		t.Errorf("unlock stmt missing")
	}
	w, ok := body[5].(*WhileStmt)
	if !ok {
		t.Fatalf("while missing, got %T", body[5])
	}
	if w.Cond.Text() != "i<10" {
		t.Errorf("while cond = %q", w.Cond.Text())
	}
	if _, ok := body[6].(*JoinStmt); !ok {
		t.Errorf("join missing")
	}
	ret, ok := body[7].(*ReturnStmt)
	if !ok || ret.HasVal {
		t.Errorf("void return malformed: %+v", ret)
	}
}

func TestParseCallsAndExpressions(t *testing.T) {
	src := `
func helper(q) {
  return q;
}
func main() {
  v = helper(v0);
  helper(v);
  n = null;
  s = taint();
  sink(s);
  x = a + b;
  fp = helper;
  fork(t2, fp, x);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("main").Body.Stmts
	call := body[0].(*AssignStmt).RHS.(*CallExpr)
	if call.Callee != "helper" || len(call.Args) != 1 {
		t.Errorf("call expr malformed: %+v", call)
	}
	if _, ok := body[1].(*CallStmt); !ok {
		t.Errorf("call stmt missing")
	}
	if _, ok := body[2].(*AssignStmt).RHS.(*NullExpr); !ok {
		t.Errorf("null expr missing")
	}
	if _, ok := body[3].(*AssignStmt).RHS.(*TaintExpr); !ok {
		t.Errorf("taint expr missing")
	}
	if _, ok := body[4].(*SinkStmt); !ok {
		t.Errorf("sink stmt missing")
	}
	be, ok := body[5].(*AssignStmt).RHS.(*BinExpr)
	if !ok || be.Op != "+" {
		t.Errorf("binexpr malformed: %+v", body[5])
	}
	if _, ok := body[6].(*AssignStmt).RHS.(*VarExpr); !ok {
		t.Errorf("function value assignment should be var expr")
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
func main() {
  if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Func("main").Body.Stmts[0].(*IfStmt)
	if ifs.Else == nil || len(ifs.Else.Stmts) != 1 {
		t.Fatal("else-if not folded into else block")
	}
	inner, ok := ifs.Else.Stmts[0].(*IfStmt)
	if !ok || inner.Else == nil {
		t.Fatal("inner else-if malformed")
	}
}

func TestParseComplexConditions(t *testing.T) {
	src := `func main() { if (a && !b || c == 1) { x = 1; } }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cond := prog.Func("main").Body.Stmts[0].(*IfStmt).Cond
	or, ok := cond.(*CondOr)
	if !ok {
		t.Fatalf("top should be ||, got %T", cond)
	}
	and, ok := or.L.(*CondAnd)
	if !ok {
		t.Fatalf("left should be &&, got %T", or.L)
	}
	if _, ok := and.R.(*CondNot); !ok {
		t.Errorf("!b should be CondNot")
	}
	if atom, ok := or.R.(*CondAtom); !ok || atom.Txt != "c==1" {
		t.Errorf("comparison atom = %+v", or.R)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func",
		"func f( {",
		"func f() { x = ; }",
		"func f() { *x y; }",
		"func f() { if a { } }",
		"func f() { fork(); }",
		"global;",
		"func f() { y = x }", // missing semicolon
		"func f() { ",
		"stray",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseDuplicateFunction(t *testing.T) {
	_, err := Parse("func f() { }\nfunc f() { }")
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Fatalf("duplicate function not rejected: %v", err)
	}
}

func TestParseFieldAccess(t *testing.T) {
	src := `
func main() {
  rec = malloc();
  v = malloc();
  rec.data = v;
  w = rec.data;
  print(*w);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("main").Body.Stmts
	st, ok := body[2].(*StoreStmt)
	if !ok || st.Ptr != "rec" || st.Field != "data" || st.Val != "v" {
		t.Fatalf("field store malformed: %+v", body[2])
	}
	ld, ok := body[3].(*AssignStmt).RHS.(*LoadExpr)
	if !ok || ld.Ptr != "rec" || ld.Field != "data" {
		t.Fatalf("field load malformed: %+v", body[3])
	}
	if ld.Text() != "rec.data" {
		t.Errorf("field load text = %q", ld.Text())
	}
	// Plain deref still renders with a star.
	plain := &LoadExpr{Ptr: "p"}
	if plain.Text() != "*p" {
		t.Errorf("plain load text = %q", plain.Text())
	}
}

func TestParseFieldErrors(t *testing.T) {
	for _, src := range []string{
		"func f() { p. = v; }",
		"func f() { p.f v; }",
		"func f() { v = p.; }",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestCondTextStability(t *testing.T) {
	// The same syntactic condition in different functions must produce the
	// same canonical text (this keys the shared θ atoms).
	src := `
func f() { if (flag == 1) { x = 1; } }
func g() { if (flag == 1) { y = 1; } }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c1 := prog.Func("f").Body.Stmts[0].(*IfStmt).Cond.Text()
	c2 := prog.Func("g").Body.Stmts[0].(*IfStmt).Cond.Text()
	if c1 != c2 {
		t.Fatalf("same condition renders differently: %q vs %q", c1, c2)
	}
}

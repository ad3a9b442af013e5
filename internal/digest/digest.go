// Package digest computes the canonical content keys of the incremental
// analysis layer.
//
// Two canonicalizers live here, one per cache granularity, and they are the
// single source of truth for both:
//
//   - CanonicalSource normalizes representation-only degrees of freedom of a
//     whole program text (line endings, trailing blanks, comment text). It
//     keys canary.SubmissionKey and hence canaryd's whole-submission result
//     store.
//   - FuncStruct hashes one function's structure with local names
//     alpha-renamed and positions excluded. SummaryKeys folds every
//     function's structural digest with the digests of its transitively
//     reachable callees, producing the dependency-aware keys of the
//     per-function summary store: editing a function invalidates exactly
//     the functions that can reach it through calls, nothing else.
//
// Sharing one package (and one comment-stripping rule, lang.StripLineComment)
// guarantees that a comment or whitespace edit hits both cache layers: the
// submission key is unchanged because the canonical text is unchanged, and
// every summary key is unchanged because digests are computed on the parsed
// AST, which never saw the comment.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sort"
	"strconv"
	"strings"

	"canary/internal/cache"
	"canary/internal/lang"
)

// CanonicalSource normalizes the representation-only degrees of freedom of
// a program text: CRLF line endings, per-line trailing whitespace, trailing
// "//" comment text, and the final newline. The line structure itself is
// preserved — no line is ever added or removed — so positions (and thus the
// line numbers inside a cached result) stay valid for every source that
// canonicalizes to the same text.
func CanonicalSource(src string) string {
	return string(AppendCanonical(make([]byte, 0, len(src)+1), src))
}

// AppendCanonical appends CanonicalSource(src) to dst and returns the
// extended slice, for callers that hash the canonical text rather than
// keep it.
func AppendCanonical(dst []byte, src string) []byte {
	canonicalLines(src, func(newlines int, line string) bool {
		for ; newlines > 0; newlines-- {
			dst = append(dst, '\n')
		}
		dst = append(dst, line...)
		return true
	})
	return append(dst, '\n')
}

// CanonicalEqual reports whether CanonicalSource(src) == canon, streaming
// the comparison line by line instead of building the canonical text, so
// checking a representation-only edit allocates nothing.
func CanonicalEqual(src, canon string) bool {
	pos := 0
	return canonicalLines(src, func(newlines int, line string) bool {
		for ; newlines > 0; newlines-- {
			if pos >= len(canon) || canon[pos] != '\n' {
				return false
			}
			pos++
		}
		if !strings.HasPrefix(canon[pos:], line) {
			return false
		}
		pos += len(line)
		return true
	}) && canon[pos:] == "\n"
}

// canonicalLines walks the canonical text of src: it calls emit for every
// line left non-empty by stripping its comment and then its trailing blanks
// (a CR of a CRLF ending is trailing or inside the comment, so it goes
// too), with the number of newlines that precede the line in the canonical
// text. Blank lines surface only as those counts, so trailing ones vanish;
// the text ends with the last emitted line plus one newline. It stops, and
// returns false, as soon as emit does.
func canonicalLines(src string, emit func(newlines int, line string) bool) bool {
	owed := 0
	for first := true; ; first = false {
		line, rest, more := strings.Cut(src, "\n")
		if !first {
			owed++
		}
		if line = strings.TrimRight(lang.StripLineComment(line), " \t\r"); line != "" {
			if !emit(owed, line) {
				return false
			}
			owed = 0
		}
		if !more {
			return true
		}
		src = rest
	}
}

// structHasher folds one function's shape into a SHA-256 state. Local value
// names (parameters, assigned variables, thread handles) are alpha-renamed
// to their first-occurrence index, so renaming a local never changes the
// digest; names with program-level identity — callees, globals, mutexes,
// condition variables — stay literal. Positions and comments never reach
// the hash, and branch-condition text is excluded because the summary
// domain (pta.Summary) is condition-insensitive.
type structHasher struct {
	h     hash.Hash
	alpha map[string]int
	funcs map[string]bool
}

func (s *structHasher) raw(b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	s.h.Write(n[:])
	s.h.Write(b)
}

func (s *structHasher) tag(t byte)     { s.h.Write([]byte{t}) }
func (s *structHasher) lit(str string) { s.raw([]byte(str)) }
func (s *structHasher) num(i int)      { s.lit(strconv.Itoa(i)) }
func (s *structHasher) boolean(b bool) { s.lit(strconv.FormatBool(b)) }

// local emits the alpha-index of a local value name. Declared function
// names referenced in value position (function values) keep their literal
// identity — they name a program-level entity, not a local.
func (s *structHasher) local(name string) {
	if s.funcs[name] {
		s.lit("F:" + name)
		return
	}
	idx, ok := s.alpha[name]
	if !ok {
		idx = len(s.alpha)
		s.alpha[name] = idx
	}
	s.num(idx)
}

func (s *structHasher) locals(names []string) {
	s.num(len(names))
	for _, n := range names {
		s.local(n)
	}
}

func (s *structHasher) block(b *lang.Block) {
	if b == nil {
		s.tag('_')
		return
	}
	s.tag('{')
	s.num(len(b.Stmts))
	for _, st := range b.Stmts {
		s.stmt(st)
	}
	s.tag('}')
}

func (s *structHasher) stmt(st lang.Stmt) {
	switch st := st.(type) {
	case *lang.AssignStmt:
		s.tag('A')
		s.local(st.LHS)
		s.expr(st.RHS)
	case *lang.StoreStmt:
		s.tag('S')
		s.local(st.Ptr)
		s.local(st.Val)
		s.lit(st.Field)
	case *lang.FreeStmt:
		s.tag('F')
		s.local(st.Var)
	case *lang.PrintStmt:
		s.tag('P')
		s.local(st.Var)
	case *lang.SinkStmt:
		s.tag('K')
		s.local(st.Var)
	case *lang.IfStmt:
		s.tag('I')
		s.block(st.Then)
		s.block(st.Else)
	case *lang.WhileStmt:
		s.tag('W')
		s.block(st.Body)
	case *lang.ForkStmt:
		s.tag('f')
		s.local(st.Thread)
		s.callee(st.Callee)
		s.locals(st.Args)
	case *lang.JoinStmt:
		s.tag('j')
		s.local(st.Thread)
	case *lang.LockStmt:
		s.tag('L')
		s.lit(st.Mutex)
	case *lang.UnlockStmt:
		s.tag('U')
		s.lit(st.Mutex)
	case *lang.WaitStmt:
		s.tag('w')
		s.lit(st.Cond)
	case *lang.NotifyStmt:
		s.tag('n')
		s.lit(st.Cond)
	case *lang.ReturnStmt:
		s.tag('R')
		s.boolean(st.HasVal)
		if st.HasVal {
			s.local(st.Value)
		}
	case *lang.CallStmt:
		s.tag('C')
		s.callee(st.Callee)
		s.locals(st.Args)
	default:
		s.tag('?')
	}
}

// callee emits a call/fork target. A name that resolves to a declared
// function is literal (it is the dependency edge); a function-pointer
// variable is a local like any other.
func (s *structHasher) callee(name string) {
	if s.funcs[name] {
		s.lit("F:" + name)
	} else {
		s.tag('v')
		s.local(name)
	}
}

func (s *structHasher) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.VarExpr:
		s.tag('v')
		s.local(e.Name)
	case *lang.NumExpr:
		s.tag('N')
		s.num(e.Value)
	case *lang.LoadExpr:
		s.tag('l')
		s.local(e.Ptr)
		s.lit(e.Field)
	case *lang.AddrExpr:
		s.tag('&')
		s.lit(e.Name)
	case *lang.MallocExpr:
		s.tag('m')
	case *lang.NullExpr:
		s.tag('0')
	case *lang.TaintExpr:
		s.tag('t')
	case *lang.BinExpr:
		s.tag('b')
		s.lit(e.Op)
		s.expr(e.L)
		s.expr(e.R)
	case *lang.CallExpr:
		s.tag('c')
		s.callee(e.Callee)
		s.locals(e.Args)
	default:
		s.tag('?')
	}
}

// funcNames returns the set of declared function names of prog.
func funcNames(prog *lang.Program) map[string]bool {
	fns := make(map[string]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		fns[f.Name] = true
	}
	return fns
}

// FuncStruct returns the structural digest of one function: its body shape
// with locals alpha-renamed, positions and comments excluded, and
// program-level names (callees, globals, mutexes, condition variables)
// literal. Two functions that differ only in local names, whitespace,
// comments, or source position share a digest.
func FuncStruct(prog *lang.Program, f *lang.FuncDecl) cache.Key {
	return funcStruct(funcNames(prog), f)
}

func funcStruct(fns map[string]bool, f *lang.FuncDecl) cache.Key {
	s := &structHasher{h: sha256.New(), alpha: make(map[string]int), funcs: fns}
	s.lit("canary-func-struct-v1")
	s.num(len(f.Params))
	for _, p := range f.Params {
		s.local(p) // parameters take alpha indices 0..n-1 in order
	}
	s.block(f.Body)
	var key cache.Key
	s.h.Sum(key[:0])
	return key
}

// Callees returns the sorted, deduplicated direct call/fork targets of f
// that name declared functions. Indirect targets (function-pointer
// variables) contribute no edge — mirroring pta.Summaries, which resolves
// callee summaries by direct name only.
func Callees(prog *lang.Program, f *lang.FuncDecl) []string {
	return callees(funcNames(prog), f)
}

func callees(fns map[string]bool, f *lang.FuncDecl) []string {
	seen := make(map[string]bool)
	add := func(name string) {
		if fns[name] {
			seen[name] = true
		}
	}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.CallExpr:
			add(e.Callee)
		case *lang.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		}
	}
	var walk func(b *lang.Block)
	walk = func(b *lang.Block) {
		if b == nil {
			return
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *lang.AssignStmt:
				walkExpr(st.RHS)
			case *lang.CallStmt:
				add(st.Callee)
			case *lang.ForkStmt:
				add(st.Callee)
			case *lang.IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *lang.WhileStmt:
				walk(st.Body)
			}
		}
	}
	walk(f.Body)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SummaryKeys returns the dependency-aware content key of every function:
// SHA-256 over the function's own structural digest plus the (name,
// digest) pairs of every function transitively reachable through direct
// calls and forks, in sorted name order. The reachable-set folding makes
// the key valid across mutually recursive groups, and it gives the
// invalidation rule its precision: editing f changes the keys of exactly
// the functions that can reach f, so a warm summary store re-analyzes only
// those (the FuncsReanalyzed the stats report).
func SummaryKeys(prog *lang.Program) map[string]cache.Key {
	fns := funcNames(prog)
	structs := make(map[string]cache.Key, len(prog.Funcs))
	adj := make(map[string][]string, len(prog.Funcs))
	for _, f := range prog.Funcs {
		structs[f.Name] = funcStruct(fns, f)
		adj[f.Name] = callees(fns, f)
	}

	keys := make(map[string]cache.Key, len(prog.Funcs))
	for _, f := range prog.Funcs {
		// Reachable set (excluding f itself unless reached via a cycle).
		reach := make(map[string]bool)
		stack := append([]string(nil), adj[f.Name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[n] {
				continue
			}
			reach[n] = true
			stack = append(stack, adj[n]...)
		}
		names := make([]string, 0, len(reach))
		for n := range reach {
			names = append(names, n)
		}
		sort.Strings(names)

		h := sha256.New()
		seg := func(b []byte) {
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
		seg([]byte("canary-summary-key-v1"))
		own := structs[f.Name]
		seg(own[:])
		for _, n := range names {
			seg([]byte(n))
			dep := structs[n]
			seg(dep[:])
		}
		var key cache.Key
		h.Sum(key[:0])
		keys[f.Name] = key
	}
	return keys
}

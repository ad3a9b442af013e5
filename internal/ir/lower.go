package ir

import (
	"fmt"
	"sort"

	"canary/internal/guard"
	"canary/internal/lang"
	"canary/internal/pta"
)

// Options configures the structural bounding of §3.1.
type Options struct {
	// UnrollDepth is how many times loops are unrolled (the paper unrolls
	// each loop twice, §6). Minimum 1.
	UnrollDepth int
	// InlineDepth is the maximum call-inlining (context nesting) depth; the
	// paper sets the number of nested calling-context levels to six (§7.2).
	InlineDepth int
	// Entry is the entry function name; defaults to "main".
	Entry string
	// Summaries optionally supplies precomputed Trans(F) summaries keyed by
	// function name (the incremental path: canary.Session loads unchanged
	// functions' summaries from its digest-keyed store and injects them
	// here). nil means Lower computes them from scratch. The injected map
	// must cover every function of src, as pta.Summaries would.
	Summaries map[string]*pta.Summary
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{UnrollDepth: 2, InlineDepth: 6, Entry: "main"}
}

func (o Options) withDefaults() Options {
	if o.UnrollDepth < 1 {
		o.UnrollDepth = 2
	}
	if o.InlineDepth < 1 {
		o.InlineDepth = 6
	}
	if o.Entry == "" {
		o.Entry = "main"
	}
	return o
}

// Lower converts a parsed program into the bounded partial-SSA IR,
// performing loop unrolling, clone-based call inlining, SSA renaming with φ
// insertion, and thread-tree construction. Function pointers in fork/call
// positions are resolved with Steensgaard's analysis (§6).
func Lower(src *lang.Program, opt Options) (*Program, error) {
	opt = opt.withDefaults()
	funcs := make(map[string]*lang.FuncDecl, len(src.Funcs))
	for _, f := range src.Funcs {
		if _, dup := funcs[f.Name]; !dup {
			funcs[f.Name] = f // the first declaration wins, as in lang.Program.Func
		}
	}
	entry := funcs[opt.Entry]
	if entry == nil {
		return nil, fmt.Errorf("ir: no entry function %q", opt.Entry)
	}
	summaries := opt.Summaries
	if summaries == nil {
		summaries = pta.Summaries(src)
	}
	l := &lowerer{
		funcs:     funcs,
		opt:       opt,
		p:         &Program{Pool: guard.NewPool()},
		steens:    pta.AnalyzeFuncPointers(src),
		summaries: summaries,
		globals:   make(map[string]ObjID),
		funcObj:   make(map[string]ObjID),
		heapN:     0,
	}
	for _, g := range src.Globals {
		l.globals[g.Name] = l.p.newObject(ObjGlobal, "g:"+g.Name, NoLabel, "")
	}

	// Main thread.
	main := &Thread{ID: 0, Name: "main", Parent: -1, ForkSite: NoLabel, JoinSite: NoLabel}
	l.p.Threads = append(l.p.Threads, main)
	tl := l.newThreadLowerer(main, guard.True())
	env := newEnv()
	for _, param := range entry.Params {
		env.vars[param] = l.p.newVar(param+".arg", NoLabel)
	}
	ctx := &callCtx{fn: entry.Name, depth: 0, stack: map[string]bool{entry.Name: true}}
	tl.lowerBlock(entry.Body, env, ctx)
	l.p.Finalize()
	return l.p, nil
}

type lowerer struct {
	// funcs is the name → declaration index of the source program, built
	// once per Lower (not memoized on the AST, which other goroutines may
	// be reading).
	funcs     map[string]*lang.FuncDecl
	opt       Options
	p         *Program
	steens    *pta.Steensgaard
	summaries map[string]*pta.Summary
	globals   map[string]ObjID
	funcObj   map[string]ObjID
	heapN     int
	varN      int
	blockN    int
}

func (l *lowerer) funcObject(name string) ObjID {
	if id, ok := l.funcObj[name]; ok {
		return id
	}
	id := l.p.newObject(ObjFunc, "fn:"+name, NoLabel, name)
	l.funcObj[name] = id
	return id
}

func (l *lowerer) freshVar(base string, def Label) VarID {
	l.varN++
	return l.p.newVar(fmt.Sprintf("%s.%d", base, l.varN), def)
}

// env is the SSA renaming environment of one function scope.
type env struct {
	vars    map[string]VarID
	threads map[string][]int // fork handle → child thread ids
}

func newEnv() *env {
	return &env{vars: make(map[string]VarID), threads: make(map[string][]int)}
}

func (e *env) clone() *env {
	ne := newEnv()
	for k, v := range e.vars {
		ne.vars[k] = v
	}
	for k, v := range e.threads {
		ne.threads[k] = append([]int(nil), v...)
	}
	return ne
}

// callCtx tracks the inlining state (clone-based context sensitivity).
type callCtx struct {
	fn      string          // display name of the current clone
	depth   int             // inlining depth
	stack   map[string]bool // functions on the inline stack (recursion cut)
	returns *[]retVal       // collector for the innermost inlined call
}

type retVal struct {
	val   VarID // 0 for void
	guard *guard.Formula
}

// threadLowerer lowers statements into one thread's CFG.
type threadLowerer struct {
	l    *lowerer
	th   *Thread
	cur  *Block
	path *guard.Formula
	live bool
}

func (l *lowerer) newThreadLowerer(th *Thread, entryGuard *guard.Formula) *threadLowerer {
	tl := &threadLowerer{l: l, th: th, path: entryGuard, live: true}
	tl.cur = tl.newBlock(entryGuard)
	th.Entry = tl.cur
	return tl
}

func (tl *threadLowerer) newBlock(g *guard.Formula) *Block {
	tl.l.blockN++
	b := &Block{ID: tl.l.blockN, Thread: tl.th.ID, Guard: g}
	tl.th.Blocks = append(tl.th.Blocks, b)
	return b
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// emit appends an instruction to the current block, assigning its label.
func (tl *threadLowerer) emit(i *Inst) *Inst {
	i.Label = Label(len(tl.l.p.insts))
	i.Thread = tl.th.ID
	i.Block = tl.cur
	if i.Guard == nil {
		i.Guard = tl.path
	}
	tl.l.p.insts = append(tl.l.p.insts, i)
	tl.cur.Insts = append(tl.cur.Insts, i)
	return i
}

// lowerCond maps an AST condition to a guard formula; atoms are keyed on
// canonical condition text, so the same syntactic condition anywhere in the
// program shares an atom (Fig. 2's θ).
func (tl *threadLowerer) lowerCond(c lang.Cond) *guard.Formula {
	switch c := c.(type) {
	case *lang.CondTrue:
		return guard.True()
	case *lang.CondFalse:
		return guard.False()
	case *lang.CondAtom:
		return guard.Var(tl.l.p.Pool.Bool(c.Txt))
	case *lang.CondNot:
		return guard.Not(tl.lowerCond(c.C))
	case *lang.CondAnd:
		return guard.And(tl.lowerCond(c.L), tl.lowerCond(c.R))
	case *lang.CondOr:
		return guard.Or(tl.lowerCond(c.L), tl.lowerCond(c.R))
	}
	panic("ir: unknown condition node")
}

// lookup resolves a variable read. Unbound names become havoc definitions
// (explicitly undefined inputs); function names become address-of-function
// values.
func (tl *threadLowerer) lookup(e *env, ctx *callCtx, name string, pos lang.Pos) VarID {
	if v, ok := e.vars[name]; ok {
		return v
	}
	if tl.l.funcs[name] != nil {
		v := tl.l.freshVar(name, 0)
		in := tl.emit(&Inst{Op: OpAddr, Def: v, Obj: tl.l.funcObject(name), Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(name, 0)
	in := tl.emit(&Inst{Op: OpHavoc, Def: v, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	e.vars[name] = v
	return v
}

// lowerBlock lowers stmts into the CFG; it returns normally even when the
// path died (live=false) so callers can merge environments.
func (tl *threadLowerer) lowerBlock(b *lang.Block, e *env, ctx *callCtx) {
	for _, st := range b.Stmts {
		if !tl.live {
			return
		}
		tl.lowerStmt(st, e, ctx)
	}
}

func (tl *threadLowerer) lowerStmt(st lang.Stmt, e *env, ctx *callCtx) {
	switch st := st.(type) {
	case *lang.AssignStmt:
		v := tl.lowerExpr(st.LHS, st.RHS, e, ctx)
		if v != 0 {
			e.vars[st.LHS] = v
		}
	case *lang.StoreStmt:
		ptr := tl.lookup(e, ctx, st.Ptr, st.Pos)
		val := tl.lookup(e, ctx, st.Val, st.Pos)
		tl.emit(&Inst{Op: OpStore, Ptr: ptr, Val: val, Field: st.Field, Pos: st.Pos, Fn: ctx.fn})
	case *lang.FreeStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(&Inst{Op: OpFree, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.PrintStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(&Inst{Op: OpDeref, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.SinkStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(&Inst{Op: OpLeak, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.IfStmt:
		tl.lowerIf(st, e, ctx)
	case *lang.WhileStmt:
		tl.lowerWhile(st, e, ctx, tl.l.opt.UnrollDepth)
	case *lang.ForkStmt:
		tl.lowerFork(st, e, ctx)
	case *lang.JoinStmt:
		for _, tid := range e.threads[st.Thread] {
			in := tl.emit(&Inst{Op: OpJoin, ForkThread: tid, Pos: st.Pos, Fn: ctx.fn})
			child := tl.l.p.Threads[tid]
			if child.JoinSite == NoLabel {
				child.JoinSite = in.Label
			}
		}
	case *lang.LockStmt:
		tl.emit(&Inst{Op: OpLock, Mutex: st.Mutex, Pos: st.Pos, Fn: ctx.fn})
	case *lang.UnlockStmt:
		tl.emit(&Inst{Op: OpUnlock, Mutex: st.Mutex, Pos: st.Pos, Fn: ctx.fn})
	case *lang.WaitStmt:
		tl.emit(&Inst{Op: OpWait, CondVar: st.Cond, Pos: st.Pos, Fn: ctx.fn})
	case *lang.NotifyStmt:
		tl.emit(&Inst{Op: OpNotify, CondVar: st.Cond, Pos: st.Pos, Fn: ctx.fn})
	case *lang.ReturnStmt:
		if ctx.returns != nil {
			rv := retVal{guard: tl.path}
			if st.HasVal {
				rv.val = tl.lookup(e, ctx, st.Value, st.Pos)
			}
			*ctx.returns = append(*ctx.returns, rv)
		}
		tl.live = false
	case *lang.CallStmt:
		tl.lowerCall(st.Callee, st.Args, "", e, ctx, st.Pos)
	default:
		panic(fmt.Sprintf("ir: unknown statement %T", st))
	}
}

// lowerExpr lowers "lhs = rhs" and returns the SSA variable holding the
// result (0 when the call had no usable result).
func (tl *threadLowerer) lowerExpr(lhs string, rhs lang.Expr, e *env, ctx *callCtx) VarID {
	switch rhs := rhs.(type) {
	case *lang.VarExpr:
		// Straight copy keeps SSA sharing; a fresh version with an explicit
		// copy instruction gives the VFG a def site per source assignment.
		src := tl.lookup(e, ctx, rhs.Name, rhs.Pos)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpCopy, Def: v, Val: src, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.NumExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpConst, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.LoadExpr:
		ptr := tl.lookup(e, ctx, rhs.Ptr, rhs.Pos)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpLoad, Def: v, Ptr: ptr, Field: rhs.Field, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.AddrExpr:
		obj, ok := tl.l.globals[rhs.Name]
		if !ok {
			// Taking the address of an unknown name: model as a fresh
			// global-like object so the analysis stays permissive.
			obj = tl.l.p.newObject(ObjGlobal, "g:"+rhs.Name, NoLabel, "")
			tl.l.globals[rhs.Name] = obj
		}
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpAddr, Def: v, Obj: obj, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.MallocExpr:
		tl.l.heapN++
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpAlloc, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		obj := tl.l.p.newObject(ObjHeap, fmt.Sprintf("o%d", tl.l.heapN), in.Label, ctx.fn)
		in.Obj = obj
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.NullExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpNull, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		obj := tl.l.p.newObject(ObjNull, fmt.Sprintf("null@ℓ%d", in.Label), in.Label, ctx.fn)
		in.Obj = obj
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.TaintExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpTaint, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.BinExpr:
		lv := tl.lowerOperand(rhs.L, e, ctx)
		rv := tl.lowerOperand(rhs.R, e, ctx)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(&Inst{Op: OpBin, Def: v, Ops: []VarID{lv, rv}, BinOp: rhs.Op, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.CallExpr:
		return tl.lowerCall(rhs.Callee, rhs.Args, lhs, e, ctx, rhs.Pos)
	}
	panic(fmt.Sprintf("ir: unknown expression %T", rhs))
}

func (tl *threadLowerer) lowerOperand(ex lang.Expr, e *env, ctx *callCtx) VarID {
	switch ex := ex.(type) {
	case *lang.VarExpr:
		return tl.lookup(e, ctx, ex.Name, ex.Pos)
	case *lang.NumExpr:
		v := tl.l.freshVar("lit", 0)
		in := tl.emit(&Inst{Op: OpConst, Def: v, Pos: ex.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	panic(fmt.Sprintf("ir: bad binop operand %T", ex))
}

func (tl *threadLowerer) lowerIf(st *lang.IfStmt, e *env, ctx *callCtx) {
	cond := tl.lowerCond(st.Cond)
	basePath := tl.path
	pre := tl.cur

	// Then branch.
	thenEnv := e.clone()
	thenBlk := tl.newBlock(guard.And(basePath, cond))
	link(pre, thenBlk)
	tl.cur, tl.path, tl.live = thenBlk, guard.And(basePath, cond), true
	tl.lowerBlock(st.Then, thenEnv, ctx)
	thenEnd, thenLive := tl.cur, tl.live

	// Else branch.
	elseEnv := e.clone()
	var elseEnd *Block
	elseLive := true
	negPath := guard.And(basePath, guard.Not(cond))
	if st.Else != nil {
		elseBlk := tl.newBlock(negPath)
		link(pre, elseBlk)
		tl.cur, tl.path, tl.live = elseBlk, negPath, true
		tl.lowerBlock(st.Else, elseEnv, ctx)
		elseEnd, elseLive = tl.cur, tl.live
	}

	// Join.
	join := tl.newBlock(basePath)
	if thenLive {
		link(thenEnd, join)
	}
	if st.Else == nil {
		link(pre, join) // fall-through edge when the condition is false
	} else if elseLive {
		link(elseEnd, join)
	}
	tl.cur, tl.path = join, basePath
	tl.live = thenLive || elseLive || st.Else == nil

	if !tl.live {
		return
	}
	// φ insertion: merge the environments that can reach the join.
	switch {
	case thenLive && (st.Else == nil || elseLive):
		other := elseEnv
		otherGuard := guard.Not(cond)
		if st.Else == nil {
			other = e
		}
		tl.mergeEnvs(e, thenEnv, other, cond, otherGuard, ctx)
	case thenLive:
		replaceEnv(e, thenEnv)
	case elseLive:
		replaceEnv(e, elseEnv)
	}
	// Thread handles flow out of both branches.
	mergeThreads(e, thenEnv)
	mergeThreads(e, elseEnv)
}

func replaceEnv(dst, src *env) {
	for k, v := range src.vars {
		dst.vars[k] = v
	}
}

func mergeThreads(dst, src *env) {
	for h, ids := range src.threads {
		have := make(map[int]bool, len(dst.threads[h]))
		for _, id := range dst.threads[h] {
			have[id] = true
		}
		for _, id := range ids {
			if !have[id] {
				dst.threads[h] = append(dst.threads[h], id)
			}
		}
	}
}

// mergeEnvs writes φ definitions into the current (join) block for every
// variable whose version differs between branches, and carries every other
// binding of either branch into dst. The φs are emitted in sorted name
// order, so their labels and variable IDs are the same in every run.
func (tl *threadLowerer) mergeEnvs(dst, a, b *env, ga, gb *guard.Formula, ctx *callCtx) {
	var phis []string
	for k, va := range a.vars {
		if vb, ok := b.vars[k]; ok && va != vb {
			phis = append(phis, k)
			continue
		}
		dst.vars[k] = va
	}
	for k, vb := range b.vars {
		if _, ok := a.vars[k]; !ok {
			dst.vars[k] = vb
		}
	}
	sort.Strings(phis)
	for _, name := range phis {
		v := tl.l.freshVar(name, 0)
		in := tl.emit(&Inst{
			Op: OpPhi, Def: v,
			Ops:       []VarID{a.vars[name], b.vars[name]},
			PhiGuards: []*guard.Formula{ga, gb},
			Fn:        ctx.fn,
		})
		tl.l.p.Var(v).Def = in.Label
		dst.vars[name] = v
	}
}

// lowerWhile unrolls "while (c) B" n times as nested ifs (§3.1/§6: loops
// are bounded by unrolling; condition atoms are shared across iterations
// because conditions are opaque symbols).
func (tl *threadLowerer) lowerWhile(st *lang.WhileStmt, e *env, ctx *callCtx, n int) {
	if n == 0 {
		return
	}
	// Lower as if (c) { B; <unrolled rest> }.
	cond := tl.lowerCond(st.Cond)
	basePath := tl.path
	pre := tl.cur
	bodyEnv := e.clone()
	bodyBlk := tl.newBlock(guard.And(basePath, cond))
	link(pre, bodyBlk)
	tl.cur, tl.path, tl.live = bodyBlk, guard.And(basePath, cond), true
	tl.lowerBlock(st.Body, bodyEnv, ctx)
	if tl.live {
		tl.lowerWhile(st, bodyEnv, ctx, n-1)
	}
	bodyEnd, bodyLive := tl.cur, tl.live

	join := tl.newBlock(basePath)
	link(pre, join)
	if bodyLive {
		link(bodyEnd, join)
	}
	tl.cur, tl.path, tl.live = join, basePath, true
	if bodyLive {
		tl.mergeEnvs(e, bodyEnv, e, cond, guard.Not(cond), ctx)
	}
	mergeThreads(e, bodyEnv)
}

// lowerFork creates one child thread per possible fork target (targets of a
// function-pointer fork come from Steensgaard's analysis).
func (tl *threadLowerer) lowerFork(st *lang.ForkStmt, e *env, ctx *callCtx) {
	targets := tl.forkTargets(st.Callee, e, ctx)
	if len(targets) == 0 {
		return
	}
	// Evaluate arguments once, in the parent.
	argVars := make([]VarID, len(st.Args))
	for i, a := range st.Args {
		argVars[i] = tl.lookup(e, ctx, a, st.Pos)
	}
	for _, tgt := range targets {
		decl := tl.l.funcs[tgt]
		if decl == nil {
			continue
		}
		childID := len(tl.l.p.Threads)
		forkInst := tl.emit(&Inst{Op: OpFork, ForkThread: childID, Pos: st.Pos, Fn: ctx.fn})
		child := &Thread{
			ID:       childID,
			Name:     fmt.Sprintf("t%d:%s@ℓ%d", childID, tgt, forkInst.Label),
			Parent:   tl.th.ID,
			ForkSite: forkInst.Label,
			JoinSite: NoLabel,
		}
		tl.l.p.Threads = append(tl.l.p.Threads, child)
		e.threads[st.Thread] = append(e.threads[st.Thread], childID)

		// Lower the child body in its own thread CFG. The child executes
		// only if the fork did: its entry guard is the fork's path
		// condition.
		ctl := tl.l.newThreadLowerer(child, tl.path)
		cenv := newEnv()
		cctx := &callCtx{fn: tgt, depth: ctx.depth, stack: map[string]bool{tgt: true}}
		for i, param := range decl.Params {
			if i >= len(argVars) {
				break
			}
			pv := tl.l.freshVar(param, 0)
			in := ctl.emit(&Inst{Op: OpCopy, Def: pv, Val: argVars[i], Pos: decl.Pos, Fn: tgt})
			tl.l.p.Var(pv).Def = in.Label
			cenv.vars[param] = pv
		}
		ctl.lowerBlock(decl.Body, cenv, cctx)
	}
}

func (tl *threadLowerer) forkTargets(callee string, e *env, ctx *callCtx) []string {
	if tl.l.funcs[callee] != nil {
		return []string{callee}
	}
	// Function pointer: consult Steensgaard over the *source* function name
	// of the current clone (clones share the source-level unification).
	return tl.l.steens.Targets(srcFuncName(ctx.fn), callee)
}

// srcFuncName strips the clone decoration "name<ctx>" back to "name".
func srcFuncName(clone string) string {
	for i := 0; i < len(clone); i++ {
		if clone[i] == '<' {
			return clone[:i]
		}
	}
	return clone
}

// lowerCall inlines a (possibly indirect) call. resultName is "" in
// statement position. Returns the SSA variable of the result (0 if none).
func (tl *threadLowerer) lowerCall(callee string, args []string, resultName string, e *env, ctx *callCtx, pos lang.Pos) VarID {
	targets := tl.forkTargets(callee, e, ctx)
	if len(targets) == 0 {
		// Unknown callee: havoc the result.
		return tl.havocResult(resultName, ctx, pos)
	}
	argVars := make([]VarID, len(args))
	for i, a := range args {
		argVars[i] = tl.lookup(e, ctx, a, pos)
	}
	var results []retVal
	for _, tgt := range targets {
		decl := tl.l.funcs[tgt]
		if decl == nil {
			continue
		}
		if ctx.depth >= tl.l.opt.InlineDepth || ctx.stack[tgt] {
			// Beyond the context bound or recursive: apply the procedural
			// transfer function Trans(F) (Alg. 1 lines 21–22) to the
			// result instead of inlining the body.
			if resultName != "" {
				if v := tl.applySummary(tgt, argVars, resultName, ctx, pos); v != 0 {
					results = append(results, retVal{val: v, guard: tl.path})
				}
			}
			continue
		}
		cloneName := fmt.Sprintf("%s<%s:%d>", tgt, srcFuncName(ctx.fn), pos.Line)
		cenv := newEnv()
		nstack := make(map[string]bool, len(ctx.stack)+1)
		for k := range ctx.stack {
			nstack[k] = true
		}
		nstack[tgt] = true
		var rets []retVal
		cctx := &callCtx{fn: cloneName, depth: ctx.depth + 1, stack: nstack, returns: &rets}
		for i, param := range decl.Params {
			if i >= len(argVars) {
				break
			}
			pv := tl.l.freshVar(param, 0)
			in := tl.emit(&Inst{Op: OpCopy, Def: pv, Val: argVars[i], Pos: pos, Fn: cloneName})
			tl.l.p.Var(pv).Def = in.Label
			cenv.vars[param] = pv
		}
		savedLive := tl.live
		tl.lowerBlock(decl.Body, cenv, cctx)
		// The call returns: execution continues regardless of which return
		// fired inside the callee.
		tl.live = savedLive
		// Thread handles created in the callee stay joinable only inside
		// it; expose them under a qualified name so later joins in the
		// caller do not silently bind.
		for h, ids := range cenv.threads {
			e.threads[cloneName+"."+h] = ids
			// Unjoined child threads remain running — nothing to do.
		}
		results = append(results, rets...)
	}
	if resultName == "" {
		return 0
	}
	// Merge return values into one SSA variable.
	var vals []VarID
	var gs []*guard.Formula
	for _, r := range results {
		if r.val != 0 {
			vals = append(vals, r.val)
			gs = append(gs, r.guard)
		}
	}
	switch len(vals) {
	case 0:
		return tl.havocResult(resultName, ctx, pos)
	case 1:
		v := tl.l.freshVar(resultName, 0)
		in := tl.emit(&Inst{Op: OpCopy, Def: v, Val: vals[0], Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(resultName, 0)
	in := tl.emit(&Inst{Op: OpPhi, Def: v, Ops: vals, PhiGuards: gs, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}

func (tl *threadLowerer) havocResult(resultName string, ctx *callCtx, pos lang.Pos) VarID {
	if resultName == "" {
		return 0
	}
	v := tl.l.freshVar(resultName, 0)
	in := tl.emit(&Inst{Op: OpHavoc, Def: v, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}

// applySummary materializes Trans(tgt) at a non-inlined call site: the
// result is the merge of the argument values that may flow to the return
// plus (when the callee may return a fresh allocation or taint) a
// per-call-site summary object or taint source. Returns 0 when the summary
// is empty, in which case the caller falls back to havoc.
func (tl *threadLowerer) applySummary(tgt string, argVars []VarID, resultName string, ctx *callCtx, pos lang.Pos) VarID {
	sum := tl.l.summaries[tgt]
	if sum == nil {
		return tl.havocResult(resultName, ctx, pos)
	}
	var parts []VarID
	for _, pi := range sum.RetParams {
		if pi < len(argVars) {
			parts = append(parts, argVars[pi])
		}
	}
	if sum.RetAlloc {
		v := tl.l.freshVar(resultName+".sum", 0)
		tl.l.heapN++
		in := tl.emit(&Inst{Op: OpAlloc, Def: v, Pos: pos, Fn: ctx.fn})
		in.Obj = tl.l.p.newObject(ObjHeap, fmt.Sprintf("o%d:sum(%s)", tl.l.heapN, tgt), in.Label, ctx.fn)
		tl.l.p.Var(v).Def = in.Label
		parts = append(parts, v)
	}
	if sum.RetTaint {
		v := tl.l.freshVar(resultName+".sum", 0)
		in := tl.emit(&Inst{Op: OpTaint, Def: v, Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		parts = append(parts, v)
	}
	switch len(parts) {
	case 0:
		return tl.havocResult(resultName, ctx, pos)
	case 1:
		v := tl.l.freshVar(resultName, 0)
		in := tl.emit(&Inst{Op: OpCopy, Def: v, Val: parts[0], Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(resultName, 0)
	gs := make([]*guard.Formula, len(parts))
	for i := range gs {
		gs[i] = guard.True()
	}
	in := tl.emit(&Inst{Op: OpPhi, Def: v, Ops: parts, PhiGuards: gs, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}

package core

import (
	"sort"
	"time"

	"canary/internal/bitset"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/vfg"
)

// storeSet maps reaching-store labels to the condition under which each is
// the reaching definition.
type storeSet map[ir.Label]*guard.Formula

// memState is the flow-sensitive address-taken state of Alg. 1: each
// location (a dense vfg.Graph LocIndex — an object field, "" = whole cell)
// maps to the set of stores that may currently define it.
//
// To keep one Alg. 1 sweep linear on the long inlined thread bodies, the
// state is layered: entering a branch pushes an empty delta layer over the
// shared pre-branch base, and the join merges only the objects the branch
// bodies touched back into the base (in place — safe because the lowered
// CFG is structured, so once a join executes, the base has no other
// consumers). An entry in a layer shadows the same object's entries below
// it (writes copy the effective value up first), so the nearest entry on
// the parent chain is always the complete current value.
type memState struct {
	parent *memState
	local  map[int]storeSet // LocIndex → reaching stores
	depth  int
}

func newMemState(parent *memState) *memState {
	d := 0
	if parent != nil {
		d = parent.depth + 1
	}
	return &memState{parent: parent, local: make(map[int]storeSet), depth: d}
}

// get returns the effective store set of location o (nil when none). The
// result must not be mutated; use set.
func (m *memState) get(o int) storeSet {
	for s := m; s != nil; s = s.parent {
		if e, ok := s.local[o]; ok {
			return e
		}
	}
	return nil
}

// set installs a complete value for o in this layer.
func (m *memState) set(o int, e storeSet) { m.local[o] = e }

// touchedDownTo adds to into every location with an entry strictly below
// base on m's chain.
func (m *memState) touchedDownTo(base *memState, into *bitset.Set) {
	for s := m; s != nil && s != base; s = s.parent {
		for o := range s.local {
			into.Add(o)
		}
	}
}

// commonBase returns the deepest state that is an ancestor-or-self of
// every given state.
func commonBase(states []*memState) *memState {
	if len(states) == 0 {
		return nil
	}
	cur := states[0]
	for _, other := range states[1:] {
		a, b := cur, other
		for a != b {
			if a == nil || b == nil {
				return nil
			}
			if a.depth > b.depth {
				a = a.parent
			} else if b.depth > a.depth {
				b = b.parent
			} else {
				a, b = a.parent, b.parent
			}
		}
		cur = a
	}
	return cur
}

func cloneStoreSet(e storeSet) storeSet {
	out := make(storeSet, len(e)+1)
	for l, g := range e {
		out[l] = g
	}
	return out
}

// passEffects is the deferred, ordered mutation log of one Alg. 1 pass.
// Parallel passes never touch the shared points-to graph or the VFG
// directly; they log their writes here, and Build replays the logs
// sequentially in thread-ID order, which makes the resulting VFG
// independent of worker count and scheduling.
type passEffects struct {
	pts       []ptsOp
	edges     []edgeOp
	objStores []objStoreOp
	filtered  int
}

// ptsOp is one deferred ptsAdd(v, o, g) call.
type ptsOp struct {
	v ir.VarID
	o ir.ObjID
	g *guard.Formula
}

// edgeOp is one deferred VFG edge insertion. Node interning is deferred
// too (VarNode/ObjNode mutate the graph), so the op carries the variable or
// object rather than a NodeID. A first pass logs about one op per
// instruction, so the op is packed: ids are int32 (vfg.New rejects
// programs whose ids overflow it) and the field is the graph's dense field
// id rather than its name.
type edgeOp struct {
	guard       *guard.Formula
	from        int32 // an ir.VarID, or an ir.ObjID when isObj
	to          int32 // ir.VarID
	store, load int32 // ir.Label
	obj         int32 // ir.ObjID
	field       int32 // vfg.Graph field id
	kind        vfg.EdgeKind
	isObj       bool
}

// objStoreOp is one deferred Graph.AddObjStore call.
type objStoreOp struct {
	loc vfg.Loc
	ref vfg.StoreRef
}

// passCtx is the isolated state of one Alg. 1 pass: a copy-on-write overlay
// over the shared (frozen-for-the-phase) points-to graph, plus the effect
// log. Same-pass reads see same-pass writes through the overlay exactly as
// the sequential analysis did; cross-thread writes of the same iteration
// land in the next fixpoint round instead, which only defers (never loses)
// propagation. Only the log outlives the pass (dataDepPass returns it), so
// a finished pass's overlay and join scratch are garbage while the other
// passes of its round still run.
type passCtx struct {
	b       *Builder
	overlay map[ir.VarID]map[ir.ObjID]*guard.Formula
	eff     passEffects
	// first is set on a thread's first pass, which logs every effect.
	// Later passes skip the effects that depend only on the IR — direct
	// and object edges, alloc/addr/null facts — because replaying them
	// is a no-op guard join Or(g, g).
	first bool

	// joinTouched is the per-pass scratch of mergeAtJoin (per-pass, not on
	// the Builder: passes of different threads run concurrently).
	joinTouched *bitset.Set
}

// pts returns the pass-visible guarded points-to set of v.
func (p *passCtx) pts(v ir.VarID) map[ir.ObjID]*guard.Formula {
	if m, ok := p.overlay[v]; ok {
		return m
	}
	return p.b.pts[v]
}

// ptsAdd logs the addition and applies it to the overlay so later
// instructions of the same pass observe it.
func (p *passCtx) ptsAdd(v ir.VarID, o ir.ObjID, g *guard.Formula) {
	if g.IsFalse() {
		return
	}
	p.eff.pts = append(p.eff.pts, ptsOp{v: v, o: o, g: g})
	m, ok := p.overlay[v]
	if !ok {
		base := p.b.pts[v]
		m = make(map[ir.ObjID]*guard.Formula, len(base)+1)
		for bo, bg := range base {
			m[bo] = bg
		}
		p.overlay[v] = m
	}
	if old, exists := m[o]; exists {
		m[o] = p.b.cap(guard.Or(old, g))
	} else {
		m[o] = p.b.cap(g)
	}
}

func (p *passCtx) addEdge(e edgeOp) { p.eff.edges = append(p.eff.edges, e) }

// addDirect logs the direct edge from → to on the thread's first pass only.
func (p *passCtx) addDirect(from, to ir.VarID, g *guard.Formula) {
	if p.first {
		p.addEdge(edgeOp{from: int32(from), to: int32(to), kind: vfg.EdgeDirect, guard: g})
	}
}

// dataDepRound runs one Alg. 1 round: a pass over every dirty thread,
// concurrently over a frozen snapshot of the points-to graph, each pass
// logging its effects (new facts and edges) privately; the logs are then
// replayed in thread-ID order, so the graph is byte-identical to a
// sequential build for any worker count. It reports whether any new
// points-to item or edge appeared.
//
// What dirties a thread for the next round is a new points-to pair for a
// variable it reads but did not define (useThreads), or a new pair the
// interference pass adds to one of its own loads. A pair its own pass
// logged does not: every fact a pass of thread T logs is for the Def of
// an instruction of T, the pass sweeps T's acyclic CFG in topological
// order, and SSA defs precede their uses, so the pass has already read
// every fact it logged and re-running it on them alone changes nothing.
func (b *Builder) dataDepRound(workers int) bool {
	var threads []*ir.Thread
	for _, th := range b.Prog.Threads {
		if b.dirty[th.ID] {
			threads = append(threads, th)
			b.dirty[th.ID] = false
		}
	}
	logs := make([]passEffects, len(threads))
	pstart := time.Now()
	runIndexed(workers, len(threads), func(i int) {
		logs[i] = b.dataDepPass(threads[i])
	})
	b.Stats.ParallelTime += time.Since(pstart)
	progressed := false
	for i, th := range threads {
		if b.applyEffects(&logs[i]) {
			progressed = true
		}
		logs[i] = passEffects{} // the log is spent; let it go before the next one
		b.passed[th.ID] = true
	}
	return progressed
}

// dataDepPass runs one Alg. 1 pass over a thread: a single topological
// sweep of the (acyclic) CFG computing the flow-sensitive address-taken
// state, logging top-level points-to updates and direct/dd edge insertions
// as deferred effects, which it returns. Passes of different threads only
// read shared state, so dataDepRound runs them concurrently.
func (b *Builder) dataDepPass(th *ir.Thread) passEffects {
	p := &passCtx{
		b:       b,
		overlay: make(map[ir.VarID]map[ir.ObjID]*guard.Formula),
		first:   !b.passed[th.ID],
	}
	if p.first {
		// A first pass logs about one edge per instruction (a little
		// more: φs and loads may log several).
		n := 0
		for _, blk := range th.Blocks {
			n += len(blk.Insts)
		}
		p.eff.edges = make([]edgeOp, 0, n*9/8)
	}

	// Blocks are created in topological order by the lowerer, so one
	// sweep reaches the intra-thread dataflow fixpoint (the CFG is a DAG).
	out := make([]*memState, len(th.Blocks))
	for bi, blk := range th.Blocks {
		var cur *memState
		switch {
		case len(blk.Preds) == 0:
			cur = newMemState(nil)
		case len(blk.Preds) == 1:
			pred := out[predIndex(th, blk.Preds[0])]
			if len(blk.Preds[0].Succs) == 1 {
				cur = pred // hand over: no other consumer
			} else {
				cur = newMemState(pred) // branch entry: delta layer
			}
		default:
			cur = p.mergeAtJoin(th, blk, out)
		}
		for _, inst := range blk.Insts {
			p.transfer(inst, cur)
		}
		out[bi] = cur
	}
	return p.eff
}

// applyEffects replays one pass's log against the shared builder state; it
// reports whether any new points-to item or edge appeared (the outer
// fixpoint's progress signal). Replay order — thread-ID order across
// passes, program order within one — fixes the edge-ID assignment and the
// guard join order regardless of how the passes were scheduled. A new pair
// dirties only the variable's cross-thread users (see dataDepRound).
func (b *Builder) applyEffects(eff *passEffects) bool {
	progressed := false
	for _, op := range eff.pts {
		if b.ptsAdd(op.v, op.o, op.g) {
			b.markUses(op.v)
			progressed = true
		}
	}
	g := b.G
	for _, e := range eff.edges {
		var from vfg.NodeID
		if e.isObj {
			from = g.ObjNode(ir.ObjID(e.from))
		} else {
			from = g.VarNode(ir.VarID(e.from))
		}
		if g.AddEdge(vfg.Edge{
			From: from, To: g.VarNode(ir.VarID(e.to)),
			Kind: e.kind, Guard: e.guard,
			Store: ir.Label(e.store), Load: ir.Label(e.load),
			Obj: ir.ObjID(e.obj), Field: g.FieldName(int(e.field)),
		}) {
			progressed = true
		}
	}
	for _, so := range eff.objStores {
		g.AddObjStore(so.loc, so.ref)
	}
	b.Stats.FilteredEdges += eff.filtered
	return progressed
}

// mergeAtJoin merges the predecessors' delta layers into their common base
// (Alg. 1's may-union with guard disjunction) and returns the base, which
// becomes the join's state.
func (p *passCtx) mergeAtJoin(th *ir.Thread, blk *ir.Block, out []*memState) *memState {
	b := p.b
	preds := make([]*memState, len(blk.Preds))
	for i, pr := range blk.Preds {
		preds[i] = out[predIndex(th, pr)]
	}
	base := commonBase(preds)
	if base == nil {
		base = newMemState(nil)
	}
	// Locations touched by any branch since the base.
	if p.joinTouched == nil {
		p.joinTouched = bitset.New(b.G.LocCount())
	} else {
		p.joinTouched.Clear()
	}
	for _, pr := range preds {
		pr.touchedDownTo(base, p.joinTouched)
	}
	p.joinTouched.ForEach(func(o int) {
		merged := make(storeSet)
		for _, pr := range preds {
			for l, g := range pr.get(o) {
				if old, ok := merged[l]; ok {
					merged[l] = b.cap(guard.Or(old, g))
				} else {
					merged[l] = g
				}
			}
		}
		base.set(o, merged)
	})
	return base
}

func predIndex(th *ir.Thread, pred *ir.Block) int {
	// Thread block slices are append-only with globally increasing IDs:
	// binary search on ID.
	lo, hi := 0, len(th.Blocks)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case th.Blocks[mid].ID == pred.ID:
			return mid
		case th.Blocks[mid].ID < pred.ID:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	panic("core: predecessor not in thread block list")
}

// transfer applies the Alg. 1 flow functions (HandleEachInst) and logs VFG
// edges. It reads shared state only through the pass overlay, so passes of
// different threads can run concurrently.
func (p *passCtx) transfer(inst *ir.Inst, mem *memState) {
	b := p.b
	switch inst.Op {
	case ir.OpAlloc, ir.OpAddr, ir.OpNull:
		// ℓ,φ: p = alloc_o  ⇒  PG_top ← {p ↣ (φ, o)}; base edge o → p.
		if p.first {
			p.ptsAdd(inst.Def, inst.Obj, inst.Guard)
			p.addEdge(edgeOp{
				from: int32(inst.Obj), isObj: true, to: int32(inst.Def),
				kind: vfg.EdgeObj, guard: inst.Guard,
			})
		}
	case ir.OpCopy:
		// ℓ,φ: p = q  ⇒  PG_top ← {p ↣ (γ∧φ, o)} ∀(γ,o) ∈ Pts(q).
		for o, γ := range p.pts(inst.Val) {
			p.ptsAdd(inst.Def, o, b.cap(guard.And(γ, inst.Guard)))
		}
		p.addDirect(inst.Val, inst.Def, inst.Guard)
	case ir.OpPhi:
		for i, op := range inst.Ops {
			φi := inst.PhiGuards[i]
			for o, γ := range p.pts(op) {
				p.ptsAdd(inst.Def, o, b.cap(guard.And(γ, φi)))
			}
			p.addDirect(op, inst.Def, φi)
		}
	case ir.OpBin:
		// Value-level flow only (taint propagation); no points-to.
		for _, op := range inst.Ops {
			p.addDirect(op, inst.Def, inst.Guard)
		}
	case ir.OpStore:
		// ℓ,φ: *x = q (or x.f = q). Strong update when Pts(x) is a
		// singleton; locations are field-sensitive.
		ptsX := p.pts(inst.Ptr)
		strong := len(ptsX) == 1
		for o, α := range ptsX {
			li := b.G.LocIndex(o, inst.Field)
			gStore := b.cap(guard.And(α, inst.Guard))
			if gStore.IsFalse() {
				continue
			}
			var entry storeSet
			if strong {
				entry = make(storeSet, 1) // IN ← IN \ Pts(x)
			} else {
				entry = cloneStoreSet(mem.get(li))
			}
			entry[inst.Label] = gStore
			mem.set(li, entry)
			p.eff.objStores = append(p.eff.objStores, objStoreOp{
				loc: vfg.Loc{Obj: o, Field: inst.Field},
				ref: vfg.StoreRef{Store: inst.Label, Guard: gStore},
			})
		}
	case ir.OpLoad:
		// ℓ,φ: p = *y (or p = y.f). Link reaching stores to the load (dd
		// edges) and propagate the stored values' points-to facts. Reaching
		// stores are visited in label order: several stores feeding one load
		// Or-join into the same points-to guard, and a fixed join order keeps
		// the formula (and everything downstream of it) deterministic.
		field := b.G.FieldID(inst.Field)
		for o, β := range p.pts(inst.Ptr) {
			reaching := mem.get(b.G.LocIndex(o, inst.Field))
			labels := make([]ir.Label, 0, len(reaching))
			for storeLabel := range reaching {
				labels = append(labels, storeLabel)
			}
			sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
			for _, storeLabel := range labels {
				γ := reaching[storeLabel]
				storeInst := b.Prog.Inst(storeLabel)
				eg := b.cap(guard.And(γ, β, inst.Guard))
				if eg.IsFalse() {
					p.eff.filtered++
					continue
				}
				p.addEdge(edgeOp{
					from: int32(storeInst.Val), to: int32(inst.Def),
					kind: vfg.EdgeDD, guard: eg,
					store: int32(storeLabel), load: int32(inst.Label),
					obj: int32(o), field: int32(field),
				})
				for o2, γ2 := range p.pts(storeInst.Val) {
					p.ptsAdd(inst.Def, o2, b.cap(guard.And(γ2, eg)))
				}
			}
		}
	case ir.OpFree, ir.OpDeref, ir.OpLeak:
		// Sources/sinks; no dataflow effect. (free does not kill points-to
		// facts — the dangling pointer is precisely what UAF checking
		// tracks.)
	case ir.OpTaint, ir.OpConst, ir.OpHavoc:
		// Defines a value with no points-to facts (havoc is the documented
		// beyond-depth summary).
	case ir.OpFork, ir.OpJoin, ir.OpLock, ir.OpUnlock, ir.OpWait, ir.OpNotify:
		// Synchronization; handled by MHP/Φ_po and the checker extensions.
	}
}

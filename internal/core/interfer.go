package core

import (
	"canary/internal/bitset"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/vfg"
)

// escapeAnalysis computes the EspObj set of Alg. 2 (lines 12–23): objects
// passed to fork calls seed the set (together with globals, which are
// statically reachable from every thread), and any object stored into an
// escaped object escapes too, to a fixed point.
func (b *Builder) escapeAnalysis() {
	// Seeds: globals.
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjGlobal {
			b.escaped[o.ID] = true
		}
	}
	// Seeds: objects passed to fork calls. Parameter bindings are the
	// cross-thread copy instructions emitted at child-thread entry.
	for _, inst := range b.Prog.Insts() {
		if inst.Op != ir.OpCopy {
			continue
		}
		src := b.Prog.Var(inst.Val)
		if src.Def == ir.NoLabel {
			continue
		}
		if b.Prog.Inst(src.Def).Thread != inst.Thread {
			for o := range b.pts[inst.Val] {
				b.escaped[o] = true
			}
		}
	}
	// Propagate: *x = q with an escaped pointee of x escapes q's pointees.
	for changed := true; changed; {
		changed = false
		for _, inst := range b.storeInsts {
			esc := false
			for o := range b.pts[inst.Ptr] {
				if b.escaped[o] {
					esc = true
					break
				}
			}
			if !esc {
				continue
			}
			for o2 := range b.pts[inst.Val] {
				if !b.escaped[o2] {
					b.escaped[o2] = true
					changed = true
				}
			}
		}
	}
}

// Pted computes the pointed-to-by set of object o by guarded forward
// reachability over the VFG (Alg. 2 lines 19–23): every variable node
// reachable from o's node may point to o, under the aggregated guard of the
// traversal.
func (b *Builder) Pted(o ir.ObjID) map[vfg.NodeID]*guard.Formula {
	g := b.G
	start := g.ObjNode(o)
	out := map[vfg.NodeID]*guard.Formula{start: guard.True()}
	work := []vfg.NodeID{start}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		gn := out[n]
		for _, eid := range g.Out(n) {
			e := g.Edge(eid)
			ng := b.cap(guard.And(gn, e.Guard))
			if ng.IsFalse() {
				continue
			}
			if old, seen := out[e.To]; seen {
				out[e.To] = b.cap(guard.Or(old, ng))
				continue // discovered before; do not re-expand (bounded)
			}
			out[e.To] = ng
			work = append(work, e.To)
		}
	}
	delete(out, start)
	return out
}

// interferencePass identifies interference-dependence edges (Alg. 2 lines
// 2–10): for every escaped object o, every cross-thread MHP pair of a store
// and a load whose pointers may point to o gets a guarded interference edge
// q@ℓ1 → p@ℓ2 with Φ_alias = φ1 ∧ φ2 ∧ α ∧ β. The load–store order part
// Φ_ls of the guard is generated lazily from the edge bookkeeping at the
// bug-checking stage (§4.2.2). Reports whether anything new appeared.
//
// The store×load candidate pairs are enumerated in a deterministic order,
// their Φ_alias guards are evaluated on the worker pool (each pair writes
// only its own slot; all inputs are frozen), and the edges plus the cyclic
// points-to enlargement are applied sequentially in enumeration order — so
// the pass is byte-identical to a 1-worker run.
func (b *Builder) interferencePass(workers int) bool {
	itemsBefore := b.ptsItems
	edgesBefore := b.G.NumEdges()

	type access struct {
		inst *ir.Inst
		cond *guard.Formula // pointed-to-by condition (α or β)
	}
	// Group accesses by dense location index. Ascending-index iteration of
	// the store-touched set is ascending (Obj, Field) order — the order the
	// map-based implementation sorted its location list into — because the
	// graph interns field names sorted.
	nLocs := b.G.LocCount()
	storesByLoc := make([][]access, nLocs)
	loadsByLoc := make([][]access, nLocs)
	storeLocs := bitset.New(nLocs)
	for _, inst := range b.storeInsts {
		for o, α := range b.pts[inst.Ptr] {
			if b.escaped[o] {
				li := b.G.LocIndex(o, inst.Field)
				storesByLoc[li] = append(storesByLoc[li], access{inst, α})
				storeLocs.Add(li)
			}
		}
	}
	for _, inst := range b.loadInsts {
		for o, β := range b.pts[inst.Ptr] {
			if b.escaped[o] {
				li := b.G.LocIndex(o, inst.Field)
				loadsByLoc[li] = append(loadsByLoc[li], access{inst, β})
			}
		}
	}

	// Enumerate the surviving candidate pairs in deterministic order.
	type candidate struct {
		s, l  access
		loc   vfg.Loc
		guard *guard.Formula // Φ_alias, filled in by the parallel phase
	}
	var cands []candidate
	storeLocs.ForEach(func(li int) {
		loads := loadsByLoc[li]
		if len(loads) == 0 {
			return
		}
		loc := b.G.LocAt(li)
		for _, s := range storesByLoc[li] {
			for _, l := range loads {
				if s.inst.Thread == l.inst.Thread {
					continue // interference is cross-thread by definition
				}
				if b.opt.EnableMHP && !b.MHP.MHP(s.inst.Label, l.inst.Label) {
					continue // §6: non-MHP pairs cannot interfere
				}
				cands = append(cands, candidate{s: s, l: l, loc: loc})
			}
		}
	})

	// Parallel phase: Φ_alias per pair. Guard construction is the dominant
	// cost here, and every input (instruction guards, captured α/β) is
	// immutable during the loop, so pairs are independent.
	runIndexed(workers, len(cands), func(i int) {
		c := &cands[i]
		c.guard = b.cap(guard.And(c.s.inst.Guard, c.l.inst.Guard, c.s.cond, c.l.cond))
	})

	// Sequential apply, in enumeration order.
	for i := range cands {
		c := &cands[i]
		φ := c.guard
		if φ.IsFalse() {
			b.Stats.FilteredEdges++
			continue
		}
		b.G.AddEdge(vfg.Edge{
			From: b.G.VarNode(c.s.inst.Val), To: b.G.VarNode(c.l.inst.Def),
			Kind: vfg.EdgeInterference, Guard: φ,
			Store: c.s.inst.Label, Load: c.l.inst.Label, Obj: c.loc.Obj, Field: c.loc.Field,
		})
		// The loaded variable may now hold anything the stored value points
		// to (the cyclic enlargement of Alg. 2).
		for o2, γ2 := range b.pts[c.s.inst.Val] {
			if b.ptsAdd(c.l.inst.Def, o2, b.cap(guard.And(γ2, φ))) {
				// No pass has read this pair yet, the loading thread's
				// own included.
				b.dirty[c.l.inst.Thread] = true
				b.markUses(c.l.inst.Def)
			}
		}
	}
	return b.ptsItems != itemsBefore || b.G.NumEdges() != edgesBefore
}

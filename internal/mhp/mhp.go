// Package mhp implements the may-happen-in-parallel analysis Canary uses to
// prune non-interfering load/store pairs before the interference-dependence
// analysis (PLDI 2021, §6): if a load and a store cannot execute
// concurrently, they cannot share an interference dependence (Defn. 1), so
// Alg. 2 need not consider the pair.
//
// The analysis exploits the fork/join structure of the bounded thread tree.
// Because the lowered CFGs are acyclic (loops are unrolled) and every label
// executes at most once, intra-thread "may reach" coincides with "always
// ordered when both execute", which keeps the rules simple and sound:
//
//   - statements of the same thread never run in parallel;
//   - a statement of an ancestor thread ordered before the fork of the
//     descendant's subtree (or after its join) is not parallel with the
//     descendant;
//   - statements of unrelated threads are not parallel when one subtree's
//     join is ordered before the other's fork in their lowest common
//     ancestor.
package mhp

import "canary/internal/ir"

// Info answers MHP queries for one program.
type Info struct {
	prog  *ir.Program
	depth []int // thread-tree depth per thread id
}

// Analyze precomputes the thread-tree structure of prog.
func Analyze(prog *ir.Program) *Info {
	m := &Info{prog: prog, depth: make([]int, len(prog.Threads))}
	for _, t := range prog.Threads {
		d := 0
		for p := t.Parent; p >= 0; p = prog.Threads[p].Parent {
			d++
		}
		m.depth[t.ID] = d
	}
	return m
}

// MHP reports whether the instructions at l1 and l2 may execute in
// parallel: they belong to different threads and the fork/join structure
// imposes no order between them.
func (m *Info) MHP(l1, l2 ir.Label) bool {
	if m.prog.Inst(l1).Thread == m.prog.Inst(l2).Thread {
		return false
	}
	return m.Ordered(l1, l2) == 0
}

// Ordered reports the program order <_P between two labels: -1 when l1 is
// ordered before l2 on every execution in which both run, +1 for the
// reverse, and 0 when the program imposes no order. Same-thread queries use
// CFG reachability (sound because bounded CFGs are acyclic); cross-thread
// queries use the fork/join synchronization semantics of §5.1.
func (m *Info) Ordered(l1, l2 ir.Label) int {
	t1 := m.prog.Inst(l1).Thread
	t2 := m.prog.Inst(l2).Thread
	if t1 == t2 {
		switch {
		case l1 == l2:
			return 0
		case m.prog.Reaches(l1, l2):
			return -1
		case m.prog.Reaches(l2, l1):
			return 1
		}
		return 0
	}
	// Ancestor/descendant: order the ancestor's statement against the
	// fork/join window of the descendant's subtree.
	if c, ok := m.childToward(t1, t2); ok {
		return m.windowOrder(l1, c)
	}
	if c, ok := m.childToward(t2, t1); ok {
		return -m.windowOrder(l2, c)
	}
	// Unrelated threads: compare the two subtree windows in the LCA.
	lca, c1, c2 := m.lca(t1, t2)
	if lca < 0 {
		return 0 // defensive: disconnected threads are unordered
	}
	w1 := m.prog.Threads[c1]
	w2 := m.prog.Threads[c2]
	if w1.JoinSite != ir.NoLabel &&
		(w1.JoinSite == w2.ForkSite || m.prog.Reaches(w1.JoinSite, w2.ForkSite)) {
		return -1
	}
	if w2.JoinSite != ir.NoLabel &&
		(w2.JoinSite == w1.ForkSite || m.prog.Reaches(w2.JoinSite, w1.ForkSite)) {
		return 1
	}
	return 0
}

// windowOrder orders label l (in an ancestor thread) against the subtree
// rooted at thread c: -1 when l precedes the whole subtree, +1 when it
// follows it, 0 when they may interleave. Each Reaches call here has c's
// fork or join site on one side; when l is a load or a store, as in the
// interference pass, ir answers it from its sync-site reachability index
// with one bit test.
func (m *Info) windowOrder(l ir.Label, c int) int {
	th := m.prog.Threads[c]
	// Before (or at) the fork: strictly ordered before the whole subtree.
	if l == th.ForkSite || m.prog.Reaches(l, th.ForkSite) {
		return -1
	}
	// After (or at) the join: strictly ordered after the whole subtree.
	if th.JoinSite != ir.NoLabel && (l == th.JoinSite || m.prog.Reaches(th.JoinSite, l)) {
		return 1
	}
	return 0
}

// childToward returns the child of anc on the thread-tree path down to
// desc, and whether anc is a proper ancestor of desc.
func (m *Info) childToward(anc, desc int) (int, bool) {
	cur := desc
	for cur >= 0 {
		p := m.prog.Threads[cur].Parent
		if p == anc {
			return cur, true
		}
		cur = p
	}
	return -1, false
}

// lca returns the lowest common ancestor of t1 and t2 together with the
// children of the LCA on the paths toward t1 and t2.
func (m *Info) lca(t1, t2 int) (lca, c1, c2 int) {
	a, b := t1, t2
	for m.depth[a] > m.depth[b] {
		a = m.prog.Threads[a].Parent
	}
	for m.depth[b] > m.depth[a] {
		b = m.prog.Threads[b].Parent
	}
	for a != b {
		if m.prog.Threads[a].Parent < 0 || m.prog.Threads[b].Parent < 0 {
			return -1, -1, -1
		}
		a = m.prog.Threads[a].Parent
		b = m.prog.Threads[b].Parent
	}
	// a == b is the LCA; find the children toward each side.
	c1, _ = m.childToward(a, t1)
	c2, _ = m.childToward(a, t2)
	return a, c1, c2
}

package ir

import "sort"

// Finalize computes the derived CFG information the analyses need:
// per-instruction block indices, per-thread block numbering, must-held lock
// sets, each parent thread's sync-site reachability index (which blocks
// reach, and are reached from, the blocks holding its children's fork and
// join sites), and the DFS memo that answers the remaining reachability
// queries. Lower calls it automatically.
func (p *Program) Finalize() {
	p.blockIndex = make([]int, len(p.insts))
	for _, th := range p.Threads {
		for li, b := range th.Blocks {
			b.local = li
			for idx, in := range b.Insts {
				p.blockIndex[in.Label] = idx
			}
		}
	}
	p.reach = make(map[*Block][]uint64)
	p.computeLockSets()
	p.buildSiteIndexes()
}

// computeLockSets fills every instruction's must-held lock set, and
// indexes the unlock instructions by (thread, mutex) for MatchingUnlock.
func (p *Program) computeLockSets() {
	for _, th := range p.Threads {
		p.lockSetsForThread(th)
	}
	p.unlocks = make(map[unlockKey][]Label)
	for _, i := range p.insts {
		if i.Op == OpUnlock {
			k := unlockKey{i.Thread, i.Mutex}
			p.unlocks[k] = append(p.unlocks[k], i.Label)
		}
	}
}

// unlockKey identifies the unlock instructions of one mutex in one thread.
type unlockKey struct {
	thread int
	mutex  string
}

// lockSetsForThread runs a forward must-analysis of held locks over the
// thread CFG: the meet at a join is set intersection (a lock differing in
// acquisition site across paths is dropped too), lock() adds, unlock()
// removes. Each instruction then records the must-held set, which the
// lock/unlock order extension (§9 future work 1) uses to add
// mutual-exclusion constraints.
func (p *Program) lockSetsForThread(th *Thread) {
	n := len(th.Blocks)
	if n == 0 {
		return
	}
	in := make([]map[string]Label, n)
	out := make([]map[string]Label, n)
	// nil means "top" (not yet computed), distinct from the empty set.
	worklist := []*Block{th.Entry}
	in[th.Entry.local] = map[string]Label{}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		cur := copySet(in[b.local])
		for _, i := range b.Insts {
			i.Locks = setToSorted(cur)
			switch i.Op {
			case OpLock:
				cur[i.Mutex] = i.Label
			case OpUnlock:
				delete(cur, i.Mutex)
			}
		}
		if equalSet(out[b.local], cur) {
			continue
		}
		out[b.local] = cur
		for _, s := range b.Succs {
			var merged map[string]Label
			if in[s.local] == nil {
				merged = copySet(cur)
			} else {
				merged = intersect(in[s.local], cur)
				if equalSet(merged, in[s.local]) {
					continue
				}
			}
			in[s.local] = merged
			worklist = append(worklist, s)
		}
	}
}

func copySet(s map[string]Label) map[string]Label {
	out := make(map[string]Label, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func intersect(a, b map[string]Label) map[string]Label {
	out := make(map[string]Label)
	for k, v := range a {
		if bv, ok := b[k]; ok && bv == v {
			out[k] = v
		}
	}
	return out
}

func equalSet(a, b map[string]Label) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func setToSorted(s map[string]Label) []HeldLock {
	if len(s) == 0 {
		return nil
	}
	out := make([]HeldLock, 0, len(s))
	for k, v := range s {
		out = append(out, HeldLock{Name: k, Acquire: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reaches reports whether there is a valid intra-thread control-flow path
// from l1 to l2 (exclusive: l1 strictly before l2 on some path). Both labels
// must belong to the same thread; otherwise it returns false.
func (p *Program) Reaches(l1, l2 Label) bool {
	i1, i2 := p.insts[l1], p.insts[l2]
	if i1.Thread != i2.Thread {
		return false
	}
	if i1.Block == i2.Block {
		return p.blockIndex[l1] < p.blockIndex[l2]
	}
	if r, ok := p.sites[i1.Thread].reaches(i1.Block.local, i2.Block.local); ok {
		return r
	}
	return p.blockReaches(i1.Block, i2.Block)
}

// blockReaches reports CFG reachability between distinct blocks of one
// thread, memoized as bitsets over the thread's local block numbering.
func (p *Program) blockReaches(from, to *Block) bool {
	p.reachMu.Lock()
	bits, ok := p.reach[from]
	p.reachMu.Unlock()
	if !ok {
		bits = p.computeReach(from)
		p.reachMu.Lock()
		p.reach[from] = bits
		p.reachMu.Unlock()
	}
	return bits[to.local/64]&(1<<(to.local%64)) != 0
}

// computeReach runs one forward DFS from a block. A block is marked when it
// is pushed, so the stack never holds more than the thread's block count.
func (p *Program) computeReach(from *Block) []uint64 {
	nBlocks := len(p.Threads[from.Thread].Blocks)
	bits := make([]uint64, (nBlocks+63)/64)
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			w, m := s.local/64, uint64(1)<<(s.local%64)
			if bits[w]&m == 0 {
				bits[w] |= m
				stack = append(stack, s)
			}
		}
	}
	return bits
}

// siteIndex is one parent thread's sync-site reachability index. Its
// columns number the distinct blocks holding the children's ForkSite and
// JoinSite labels. A block's to row holds the site columns it strictly
// reaches; its from row holds the site columns that strictly reach it.
// The interference pass's MHP fork/join window queries always have a site
// on one side and a load, a store, or another site on the other, so only
// blocks holding one of those keep rows, and such a query is one bit test.
// A thread with no children has no columns and answers nothing.
type siteIndex struct {
	col   []int32  // per local block: its site column, or -1
	row   []int32  // per local block: its row in to and from, or -1
	k     int      // number of columns
	words int      // uint64 words per row
	to    []uint64 // rows of site columns the block strictly reaches
	from  []uint64 // rows of site columns strictly reaching the block
}

// buildSiteIndexes assigns every parent thread its site columns, in thread
// order, and fills the rows.
func (p *Program) buildSiteIndexes() {
	p.sites = make([]siteIndex, len(p.Threads))
	for _, th := range p.Threads {
		if th.Parent < 0 {
			continue
		}
		s := &p.sites[th.Parent]
		if s.col == nil {
			s.col = make([]int32, len(p.Threads[th.Parent].Blocks))
			for i := range s.col {
				s.col[i] = -1
			}
		}
		for _, l := range [2]Label{th.ForkSite, th.JoinSite} {
			if l == NoLabel {
				continue
			}
			if b := p.insts[l].Block; s.col[b.local] < 0 {
				s.col[b.local] = int32(s.k)
				s.k++
			}
		}
	}
	for t := range p.sites {
		p.sites[t].fill(p.Threads[t])
	}
}

// fill computes the rows with one pass each, over a scratch table of every
// block's row: to in reverse topological order over Succs, from in
// topological order over Preds. Bounded CFGs are acyclic and lowering
// links a block only to blocks created after it, so the local numbering is
// a topological order. A thread whose numbering is not keeps no index and
// leaves every query to the DFS memo.
func (s *siteIndex) fill(th *Thread) {
	if s.col == nil {
		return
	}
	for _, b := range th.Blocks {
		for _, x := range b.Succs {
			if x.local <= b.local {
				s.col = nil
				return
			}
		}
	}
	n, w := len(th.Blocks), (s.k+63)/64
	s.words = w
	s.row = make([]int32, n)
	rows := 0
	for i, b := range th.Blocks {
		s.row[i] = -1
		if s.col[i] >= 0 || holdsLoadOrStore(b) {
			s.row[i] = int32(rows)
			rows++
		}
	}
	full := make([]uint64, n*w)
	for i := n - 1; i >= 0; i-- {
		for _, x := range th.Blocks[i].Succs {
			s.orRow(full, i, x.local)
		}
	}
	s.to = s.keptRows(full, rows)
	clear(full)
	for i := 0; i < n; i++ {
		for _, x := range th.Blocks[i].Preds {
			s.orRow(full, i, x.local)
		}
	}
	s.from = s.keptRows(full, rows)
}

func holdsLoadOrStore(b *Block) bool {
	for _, i := range b.Insts {
		if i.Op == OpLoad || i.Op == OpStore {
			return true
		}
	}
	return false
}

// orRow folds row src of full, plus src's own column when it is a site
// block, into row dst.
func (s *siteIndex) orRow(full []uint64, dst, src int) {
	w := s.words
	d, r := full[dst*w:(dst+1)*w], full[src*w:(src+1)*w]
	for j := range d {
		d[j] |= r[j]
	}
	if c := s.col[src]; c >= 0 {
		d[c/64] |= 1 << (c % 64)
	}
}

// keptRows copies the rows of the blocks that keep one out of full.
func (s *siteIndex) keptRows(full []uint64, rows int) []uint64 {
	w := s.words
	out := make([]uint64, rows*w)
	for i, r := range s.row {
		if r >= 0 {
			copy(out[int(r)*w:], full[i*w:(i+1)*w])
		}
	}
	return out
}

// reaches answers strict reachability between two distinct local blocks
// when one is a site block and the other keeps a row; ok is false
// otherwise.
func (s *siteIndex) reaches(from, to int) (r, ok bool) {
	if s.col == nil {
		return false, false
	}
	if c, i := s.col[to], s.row[from]; c >= 0 && i >= 0 {
		return s.to[int(i)*s.words+int(c/64)]&(1<<(c%64)) != 0, true
	}
	if c, i := s.col[from], s.row[to]; c >= 0 && i >= 0 {
		return s.from[int(i)*s.words+int(c/64)]&(1<<(c%64)) != 0, true
	}
	return false, false
}

// Frees returns the labels of all free instructions.
func (p *Program) Frees() []Label { return p.labelsOf(OpFree) }

// Derefs returns the labels of all dereference-sink instructions.
func (p *Program) Derefs() []Label { return p.labelsOf(OpDeref) }

// Leaks returns the labels of all information-leak sinks.
func (p *Program) Leaks() []Label { return p.labelsOf(OpLeak) }

// Taints returns the labels of all taint sources.
func (p *Program) Taints() []Label { return p.labelsOf(OpTaint) }

// Nulls returns the labels of all null-constant definitions.
func (p *Program) Nulls() []Label { return p.labelsOf(OpNull) }

// Stores returns the labels of all store instructions.
func (p *Program) Stores() []Label { return p.labelsOf(OpStore) }

// Loads returns the labels of all load instructions.
func (p *Program) Loads() []Label { return p.labelsOf(OpLoad) }

func (p *Program) labelsOf(op Op) []Label {
	var out []Label
	for _, i := range p.insts {
		if i.Op == op {
			out = append(out, i.Label)
		}
	}
	return out
}

// Ancestors returns the chain of thread ids from t up to the main thread
// (inclusive of t).
func (p *Program) Ancestors(t int) []int {
	var out []int
	for t >= 0 {
		out = append(out, t)
		t = p.Threads[t].Parent
	}
	return out
}

// HoldsLock reports whether inst must hold the named lock.
func (i *Inst) HoldsLock(m string) bool {
	for _, l := range i.Locks {
		if l.Name == m {
			return true
		}
	}
	return false
}

// CommonLocks returns, for every lock must-held by both instructions, the
// pair of held-lock records (a's and b's acquisition sites).
func CommonLocks(a, b *Inst) [][2]HeldLock {
	var out [][2]HeldLock
	for _, la := range a.Locks {
		for _, lb := range b.Locks {
			if la.Name == lb.Name {
				out = append(out, [2]HeldLock{la, lb})
			}
		}
	}
	return out
}

// MatchingUnlock returns the unique unlock instruction of mutex m reachable
// from the acquisition at acq within the same thread, or NoLabel when there
// is no unlock or more than one (in which case the caller should skip the
// mutual-exclusion encoding — a sound under-constraining).
func (p *Program) MatchingUnlock(acq Label, m string) Label {
	found := NoLabel
	for _, u := range p.unlocks[unlockKey{p.insts[acq].Thread, m}] {
		if p.Reaches(acq, u) {
			if found != NoLabel {
				return NoLabel // ambiguous
			}
			found = u
		}
	}
	return found
}

package ir

import (
	"testing"

	"canary/internal/corpus"
)

// ambiguousUnlockSource gives lock sites with no, one, and two reachable
// unlocks of their mutex, unlocks of another mutex, and the same mutex
// unlocked in another thread.
const ambiguousUnlockSource = `
func worker(c) {
  lock(mu);
  *c = c;
  unlock(mu);
  lock(mu);
}
func main() {
  cell = malloc();
  fork(w, worker, cell);
  lock(mu);
  if (p) {
    unlock(mu);
  } else {
    lock(other);
    unlock(other);
    unlock(mu);
  }
  lock(mu);
  *cell = cell;
  if (q) {
    unlock(mu);
  }
  lock(other);
}
`

// scanMatchingUnlock is MatchingUnlock by a scan over every instruction of
// the program, the definition the (thread, mutex) index must reproduce.
func scanMatchingUnlock(p *Program, acq Label, m string) Label {
	th := p.Inst(acq).Thread
	found := NoLabel
	for _, i := range p.Insts() {
		if i.Op != OpUnlock || i.Mutex != m || i.Thread != th {
			continue
		}
		if p.Reaches(acq, i.Label) {
			if found != NoLabel {
				return NoLabel
			}
			found = i.Label
		}
	}
	return found
}

// checkMatchingUnlock compares MatchingUnlock with the scan for every lock
// site of p and every mutex p mentions; it returns how many answers named
// a unique unlock and how many were NoLabel (none or ambiguous).
func checkMatchingUnlock(t *testing.T, name string, p *Program) (unique, none int) {
	t.Helper()
	mutexes := map[string]bool{}
	for _, i := range p.Insts() {
		if i.Op == OpLock || i.Op == OpUnlock {
			mutexes[i.Mutex] = true
		}
	}
	for _, i := range p.Insts() {
		if i.Op != OpLock {
			continue
		}
		for m := range mutexes {
			got, want := p.MatchingUnlock(i.Label, m), scanMatchingUnlock(p, i.Label, m)
			if got != want {
				t.Fatalf("%s: MatchingUnlock(ℓ%d, %s) = %d, scan says %d", name, i.Label, m, got, want)
			}
			if got == NoLabel {
				none++
			} else {
				unique++
			}
		}
	}
	return unique, none
}

// TestMatchingUnlockIndexed checks the indexed MatchingUnlock against a
// whole-program scan on the testdata corpus, the examples, and a program
// with absent, unique, ambiguous and cross-thread unlocks.
func TestMatchingUnlockIndexed(t *testing.T) {
	srcs, err := corpus.Programs("../..")
	if err != nil {
		t.Fatal(err)
	}
	srcs["ambiguous"] = ambiguousUnlockSource
	unique, none := 0, 0
	for name, src := range srcs {
		u, n := checkMatchingUnlock(t, name, lowerForIndex(t, name, src))
		unique += u
		none += n
	}
	if unique == 0 || none == 0 {
		t.Fatalf("corpus exercised %d unique and %d absent/ambiguous answers; want both", unique, none)
	}
	p := lowerForIndex(t, "ambiguous", ambiguousUnlockSource)
	var mainLocks []Label
	for _, i := range p.Insts() {
		if i.Op == OpLock && i.Mutex == "mu" && i.Thread == 0 {
			mainLocks = append(mainLocks, i.Label)
		}
	}
	if len(mainLocks) != 2 {
		t.Fatalf("want 2 lock(mu) sites in main, got %d", len(mainLocks))
	}
	if u := p.MatchingUnlock(mainLocks[0], "mu"); u != NoLabel {
		t.Errorf("first lock(mu) reaches two unlocks (one per branch, and one later); got unique ℓ%d", u)
	}
	if u := p.MatchingUnlock(mainLocks[1], "mu"); u == NoLabel {
		t.Errorf("second lock(mu) reaches exactly one unlock; got none")
	}
}

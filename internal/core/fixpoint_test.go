package core

import (
	"math/rand"
	"strconv"
	"testing"

	"canary/internal/corpus"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/vfg"
	"canary/internal/workload"
)

// settledState is everything a fixpoint round can add to or widen: the
// points-to pairs with their guards, the edges with their guards, the
// per-location store sets, and the escaped objects.
type settledState struct {
	items     int
	pts       map[ir.VarID]map[ir.ObjID]*guard.Formula
	edges     []*guard.Formula
	objStores [][]vfg.StoreRef
	escaped   int
}

func snapshotSettled(b *Builder) settledState {
	s := settledState{items: b.ptsItems, escaped: len(b.escaped)}
	s.pts = make(map[ir.VarID]map[ir.ObjID]*guard.Formula, len(b.pts))
	for v, m := range b.pts {
		c := make(map[ir.ObjID]*guard.Formula, len(m))
		for o, g := range m {
			c[o] = g
		}
		s.pts[v] = c
	}
	for i := 0; i < b.G.NumEdges(); i++ {
		s.edges = append(s.edges, b.G.Edge(vfg.EdgeID(i)).Guard)
	}
	for li := 0; li < b.G.LocCount(); li++ {
		s.objStores = append(s.objStores, append([]vfg.StoreRef(nil), b.G.ObjStores(b.G.LocAt(li))...))
	}
	return s
}

// forceFullRound runs one more Alg. 1/Alg. 2 round with every thread dirty
// and logging as on its first pass, the schedule that re-runs everything
// the dirty marking and the re-run logging split let the fixpoint skip.
func forceFullRound(b *Builder) bool {
	for i := range b.dirty {
		b.dirty[i] = true
		b.passed[i] = false
	}
	progressed := b.dataDepRound(1)
	b.escapeAnalysis()
	if b.interferencePass(1) {
		progressed = true
	}
	return progressed
}

// checkSettled builds src and asserts that a forced full round afterwards
// adds no points-to pair, edge, store or escaped object, and leaves every
// guard pointer-identical.
func checkSettled(t *testing.T, name, src string) {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	b := Build(prog, DefaultBuild())
	if b.Stats.FixpointExhausted {
		t.Fatalf("%s: fixpoint exhausted", name)
	}
	before := snapshotSettled(b)
	if forceFullRound(b) {
		t.Fatalf("%s: a forced full round progressed (items %d -> %d, edges %d -> %d)",
			name, before.items, b.ptsItems, len(before.edges), b.G.NumEdges())
	}
	after := snapshotSettled(b)
	if after.items != before.items || len(after.edges) != len(before.edges) || after.escaped != before.escaped {
		t.Fatalf("%s: forced round changed counts: items %d -> %d, edges %d -> %d, escaped %d -> %d",
			name, before.items, after.items, len(before.edges), len(after.edges), before.escaped, after.escaped)
	}
	for i, g := range before.edges {
		if after.edges[i] != g {
			t.Fatalf("%s: edge %d guard widened: %v -> %v", name, i, g, after.edges[i])
		}
	}
	for v, m := range before.pts {
		for o, g := range m {
			if after.pts[v][o] != g {
				t.Fatalf("%s: pts(%s)[%d] guard widened: %v -> %v", name, prog.VarName(v), o, g, after.pts[v][o])
			}
		}
	}
	for li, refs := range before.objStores {
		got := after.objStores[li]
		if len(got) != len(refs) {
			t.Fatalf("%s: location %d stores %d -> %d", name, li, len(refs), len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("%s: location %d store %d changed: %v -> %v", name, li, i, refs[i], got[i])
			}
		}
	}
}

// interferenceCopySource has a load whose facts come only from another
// thread's store and are then copied on within the loading thread, so the
// interference pass must re-dirty the thread that defines the load.
const interferenceCopySource = `
func worker(c) {
  v = *c;
  w = v;
  free(w);
}
func main() {
  cell = malloc();
  fork(t, worker, cell);
  x = malloc();
  *cell = x;
}
`

// TestFixpointSkipsOnlySettledWork checks that the outer fixpoint's
// schedule — a thread's own facts do not re-dirty it, and re-run passes
// log only points-to-dependent effects — loses nothing: after Build, one
// more round that re-runs every thread from scratch changes no fact, edge
// or guard. It covers the testdata corpus, the examples, a program whose
// facts reach a thread only through interference, small random workload
// subjects, and two Fig. 8 subjects.
func TestFixpointSkipsOnlySettledWork(t *testing.T) {
	srcs, err := corpus.Programs("../..")
	if err != nil {
		t.Fatal(err)
	}
	srcs["interference copy"] = interferenceCopySource
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 40; i++ {
		spec := workload.Spec{
			Name:          "prop",
			Lines:         r.Intn(300) + 100,
			Seed:          r.Int63(),
			TruePositives: r.Intn(3),
			CanaryFPs:     r.Intn(2),
			Fig2Traps:     r.Intn(3),
			OrderTraps:    r.Intn(2),
			LockTraps:     r.Intn(2),
			SaberTraps:    r.Intn(2),
			Fan:           r.Intn(3) + 1,
		}
		srcs["prop seed "+strconv.FormatInt(spec.Seed, 10)] = workload.Generate(spec)
	}
	for _, spec := range workload.SizeSweep(2, 3000, 12000) {
		srcs["sweep "+strconv.Itoa(spec.Lines)] = workload.Generate(spec)
	}
	for name, src := range srcs {
		checkSettled(t, name, src)
	}
}

package vfg

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
)

func lowered(t *testing.T) *ir.Program {
	t.Helper()
	src := `
func main() {
  p = malloc();
  q = p;
  *q = p;
  r = *q;
  print(*r);
}
`
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func firstVar(t *testing.T, prog *ir.Program, prefix string) ir.VarID {
	t.Helper()
	for _, v := range prog.Vars {
		if len(v.Name) >= len(prefix) && v.Name[:len(prefix)] == prefix {
			return v.ID
		}
	}
	t.Fatalf("no var with prefix %q", prefix)
	return 0
}

func TestNodeInterning(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := firstVar(t, prog, "p.")
	n1 := g.VarNode(p)
	n2 := g.VarNode(p)
	if n1 != n2 {
		t.Error("var nodes must intern")
	}
	o := prog.Objects[0].ID
	if g.ObjNode(o) != g.ObjNode(o) {
		t.Error("obj nodes must intern")
	}
	if g.NumNodes() != 2 {
		t.Errorf("want 2 nodes, got %d", g.NumNodes())
	}
	node := g.Node(n1)
	if node.Kind != NodeVar || node.Var != p {
		t.Errorf("node malformed: %+v", node)
	}
}

func TestAddEdgeDedupJoinsGuards(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	a := guard.Var(1)
	if !g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: a}) {
		t.Fatal("first insert should be new")
	}
	if g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: guard.Not(a)}) {
		t.Fatal("duplicate edge should merge, not insert")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge, got %d", g.NumEdges())
	}
	// a ∨ ¬a folds to true.
	if !g.Edge(0).Guard.IsTrue() {
		t.Errorf("merged guard should be true, got %v", g.Edge(0).Guard)
	}
	// Different kind or indirect bookkeeping means a different edge.
	if !g.AddEdge(Edge{From: p, To: q, Kind: EdgeDD, Guard: a, Store: 1, Load: 2, Obj: 1}) {
		t.Fatal("distinct indirect edge should insert")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("want 2 edges, got %d", g.NumEdges())
	}
}

func TestAdjacency(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	r := g.VarNode(firstVar(t, prog, "r."))
	g.AddEdge(Edge{From: p, To: q, Kind: EdgeDirect, Guard: guard.True()})
	g.AddEdge(Edge{From: p, To: r, Kind: EdgeDirect, Guard: guard.True()})
	g.AddEdge(Edge{From: q, To: r, Kind: EdgeDirect, Guard: guard.True()})
	if len(g.Out(p)) != 2 || len(g.In(p)) != 0 {
		t.Errorf("p adjacency wrong: out=%d in=%d", len(g.Out(p)), len(g.In(p)))
	}
	if len(g.In(r)) != 2 {
		t.Errorf("r in-degree = %d", len(g.In(r)))
	}
}

func TestObjStores(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	loc := Loc{Obj: prog.Objects[0].ID}
	a := guard.Var(1)
	g.AddObjStore(loc, StoreRef{Store: 5, Guard: a})
	g.AddObjStore(loc, StoreRef{Store: 5, Guard: guard.Not(a)}) // merges
	g.AddObjStore(loc, StoreRef{Store: 9, Guard: a})
	refs := g.ObjStores(loc)
	if len(refs) != 2 {
		t.Fatalf("want 2 store refs, got %d", len(refs))
	}
	if !refs[0].Guard.IsTrue() {
		t.Errorf("merged store guard should be true")
	}
	if g.ObjStores(Loc{Obj: ir.ObjID(999)}) != nil {
		t.Error("unknown object should have no stores")
	}
	// Distinct fields of one object are distinct locations.
	fieldLoc := Loc{Obj: prog.Objects[0].ID, Field: "next"}
	g.AddObjStore(fieldLoc, StoreRef{Store: 11, Guard: a})
	if len(g.ObjStores(loc)) != 2 || len(g.ObjStores(fieldLoc)) != 1 {
		t.Error("field locations must not share store sets")
	}
}

func TestEdgeCountByKindAndStrings(t *testing.T) {
	prog := lowered(t)
	g := New(prog)
	p := g.VarNode(firstVar(t, prog, "p."))
	q := g.VarNode(firstVar(t, prog, "q."))
	o := g.ObjNode(prog.Objects[0].ID)
	g.AddEdge(Edge{From: o, To: p, Kind: EdgeObj, Guard: guard.True()})
	g.AddEdge(Edge{From: p, To: q, Kind: EdgeInterference, Guard: guard.True(), Store: 1, Load: 2, Obj: 1})
	counts := g.EdgeCountByKind()
	if counts[EdgeObj] != 1 || counts[EdgeInterference] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if s := g.NodeString(p); s == "" {
		t.Error("empty node rendering")
	}
	if s := g.NodeString(o); s == "" {
		t.Error("empty object rendering")
	}
	for _, k := range []EdgeKind{EdgeDirect, EdgeDD, EdgeInterference, EdgeObj} {
		if k.String() == "" {
			t.Error("empty kind rendering")
		}
	}
}

// TestEdgeKeySize pins the packed edge-dedup key: the index holds about
// one key per instruction, pre-sized at construction.
func TestEdgeKeySize(t *testing.T) {
	if n := unsafe.Sizeof(edgeKey{}); n > 32 {
		t.Fatalf("edgeKey is %d bytes, want <= 32", n)
	}
}

// TestFieldNameInvertsFieldID checks FieldName against FieldID for every
// interned field, including "" (the whole cell, id 0).
func TestFieldNameInvertsFieldID(t *testing.T) {
	ast, err := lang.Parse("func main() { p = malloc(); p.next = p; q = p.val; print(*q); }")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := New(prog)
	if g.NumFields() != 3 || g.FieldID("") != 0 {
		t.Fatalf("fields: %d interned, FieldID(\"\") = %d; want 3 and 0", g.NumFields(), g.FieldID(""))
	}
	for _, f := range []string{"", "next", "val"} {
		if got := g.FieldName(g.FieldID(f)); got != f {
			t.Errorf("FieldName(FieldID(%q)) = %q", f, got)
		}
	}
}

// TestNewRejectsIDOverflow checks the int32 id bound New enforces, on the
// counts alone (a program that large cannot be built in a test).
func TestNewRejectsIDOverflow(t *testing.T) {
	checkIDRange(1000, 1000, 1000) // in range: no panic
	for _, tc := range []struct {
		name               string
		labels, vars, objs int
	}{
		{"labels", math.MaxInt32, 1, 1},
		{"variables", 1, math.MaxInt32, 1},
		{"objects", 1, 1, math.MaxInt32},
		{"nodes", 1, math.MaxInt32 / 2, math.MaxInt32/2 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "int32 ids") {
					t.Fatalf("recovered %v, want an int32 id overflow panic", r)
				}
			}()
			checkIDRange(tc.labels, tc.vars, tc.objs)
		})
	}
}

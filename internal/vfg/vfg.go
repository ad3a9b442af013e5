// Package vfg implements the guarded value-flow graph at the heart of
// Canary (PLDI 2021, §3.1). Nodes are abstract memory objects and SSA
// variable definitions (v@ℓ); edges are value flows annotated with the
// guard under which the flow happens. Direct edges come from copies, φs,
// parameter bindings and operand flows; indirect edges connect a store to a
// load through a memory object and carry, besides the alias guard, the
// bookkeeping needed to generate the load–store order constraints Φ_ls
// lazily at the bug-checking stage (§4.2.2).
package vfg

import (
	"fmt"
	"sort"

	"canary/internal/guard"
	"canary/internal/ir"
)

// NodeID indexes a node. 0 is invalid.
type NodeID int

// NodeKind discriminates node types.
type NodeKind uint8

// Node kinds.
const (
	NodeVar NodeKind = iota // an SSA variable definition v@ℓ
	NodeObj                 // an abstract memory object
)

// Node is a VFG node.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Var    ir.VarID // for NodeVar
	Obj    ir.ObjID // for NodeObj
	Def    ir.Label // defining label (NoLabel for objects/parameters)
	Thread int      // thread of the definition (-1 for objects)
}

// EdgeKind discriminates value-flow edge types.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeDirect is an intra-thread (or parameter-passing) direct flow.
	EdgeDirect EdgeKind = iota
	// EdgeDD is an indirect intra-thread store→load data dependence.
	EdgeDD
	// EdgeInterference is an indirect cross-thread store→load flow
	// (Defn. 1's interference dependence).
	EdgeInterference
	// EdgeObj is the base pointed-to-by edge from an object to the
	// variable its allocation/address-of defines.
	EdgeObj
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeDirect:
		return "direct"
	case EdgeDD:
		return "dd"
	case EdgeInterference:
		return "id"
	case EdgeObj:
		return "obj"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// EdgeID indexes an edge.
type EdgeID int

// Edge is a guarded value-flow edge.
type Edge struct {
	ID    EdgeID
	From  NodeID
	To    NodeID
	Kind  EdgeKind
	Guard *guard.Formula
	// Store/Load/Obj/Field describe indirect edges: the flow goes from the
	// store at Store to the load at Load through field Field of object Obj
	// ("" = the whole cell).
	Store ir.Label
	Load  ir.Label
	Obj   ir.ObjID
	Field string
}

type edgeKey struct {
	from, to NodeID
	kind     EdgeKind
	store    ir.Label
	load     ir.Label
	obj      ir.ObjID
	field    string
}

// Graph is a guarded value-flow graph over one lowered program.
type Graph struct {
	Prog *ir.Program

	nodes   []Node
	varNode []NodeID // indexed by VarID; 0 = not interned yet
	objNode []NodeID // indexed by ObjID; 0 = not interned yet
	edges   []Edge
	out     [][]EdgeID
	in      [][]EdgeID
	edgeIdx map[edgeKey]EdgeID

	// objStores maps each location (object, field) to the stores that may
	// define it — the superset from which the S(l) sets of Eq. 2 and the
	// intervening-store competitors of Φ_ls are drawn at checking time.
	// Indexed by LocIndex; locations outside the dense index space (an
	// object or field the program doesn't mention) fall back to a map.
	objStores   [][]StoreRef
	locOverflow map[Loc][]StoreRef

	// Dense location numbering: every (object, field) pair maps to
	// obj-major, field-minor index space. Field names are interned from the
	// program's instructions at construction, in sorted order — so ascending
	// LocIndex order is exactly ascending (Obj, Field-string) order, the
	// ordering the analysis passes sort locations into.
	fieldID    map[string]int
	fieldNames []string
}

// Loc is a field-sensitive memory location: a field of an abstract object
// ("" = the whole cell).
type Loc struct {
	Obj   ir.ObjID
	Field string
}

// StoreRef is a store that may define an object, under the given guard
// (the store's path condition conjoined with its alias condition).
type StoreRef struct {
	Store ir.Label
	Guard *guard.Formula
}

// New returns an empty graph over prog.
func New(prog *ir.Program) *Graph {
	// Every node is a variable or an object, so their counts bound the
	// node slices; the edge count runs at 1.03–1.08 per instruction.
	maxNodes, estEdges := len(prog.Vars)+len(prog.Objects), prog.NumInsts()*9/8
	g := &Graph{
		Prog:    prog,
		nodes:   make([]Node, 0, maxNodes),
		varNode: make([]NodeID, len(prog.Vars)+1),
		objNode: make([]NodeID, len(prog.Objects)+1),
		edges:   make([]Edge, 0, estEdges),
		out:     make([][]EdgeID, 0, maxNodes),
		in:      make([][]EdgeID, 0, maxNodes),
		edgeIdx: make(map[edgeKey]EdgeID, estEdges),
		fieldID: map[string]int{"": 0},
	}
	for _, inst := range prog.Insts() {
		if inst.Field != "" {
			g.fieldID[inst.Field] = 0
		}
	}
	g.fieldNames = make([]string, 0, len(g.fieldID))
	for f := range g.fieldID {
		g.fieldNames = append(g.fieldNames, f)
	}
	sort.Strings(g.fieldNames)
	for i, f := range g.fieldNames {
		g.fieldID[f] = i
	}
	g.objStores = make([][]StoreRef, g.LocCount())
	return g
}

// FieldID returns the dense id of a field name. Every field occurring in
// the program (plus "", the whole cell) is interned at construction.
func (g *Graph) FieldID(field string) int {
	id, ok := g.fieldID[field]
	if !ok {
		panic(fmt.Sprintf("vfg: field %q not interned", field))
	}
	return id
}

// NumFields returns the number of interned fields (including "").
func (g *Graph) NumFields() int { return len(g.fieldNames) }

// LocIndex returns the dense index of location (o, field): obj-major,
// field-minor, so ascending index order is ascending (Obj, Field) order.
func (g *Graph) LocIndex(o ir.ObjID, field string) int {
	return (int(o)-1)*len(g.fieldNames) + g.FieldID(field)
}

// LocCount returns the size of the dense location index space.
func (g *Graph) LocCount() int {
	return len(g.Prog.Objects) * len(g.fieldNames)
}

// LocAt is the inverse of LocIndex.
func (g *Graph) LocAt(i int) Loc {
	nf := len(g.fieldNames)
	return Loc{Obj: ir.ObjID(i/nf) + 1, Field: g.fieldNames[i%nf]}
}

// locIndex is the non-panicking LocIndex: it reports whether l lies in the
// dense index space.
func (g *Graph) locIndex(l Loc) (int, bool) {
	fid, ok := g.fieldID[l.Field]
	if !ok || int(l.Obj) < 1 || int(l.Obj) > len(g.Prog.Objects) {
		return 0, false
	}
	return (int(l.Obj)-1)*len(g.fieldNames) + fid, true
}

// VarNode interns the node of SSA variable v.
func (g *Graph) VarNode(v ir.VarID) NodeID {
	if n := g.varNode[v]; n != 0 {
		return n
	}
	info := g.Prog.Var(v)
	def := info.Def
	thread := -1
	if def != ir.NoLabel && def >= 0 {
		thread = g.Prog.Inst(def).Thread
	}
	n := g.addNode(Node{Kind: NodeVar, Var: v, Def: def, Thread: thread})
	g.varNode[v] = n
	return n
}

// ObjNode interns the node of object o.
func (g *Graph) ObjNode(o ir.ObjID) NodeID {
	if n := g.objNode[o]; n != 0 {
		return n
	}
	n := g.addNode(Node{Kind: NodeObj, Obj: o, Def: g.Prog.Obj(o).Alloc, Thread: -1})
	g.objNode[o] = n
	return n
}

func (g *Graph) addNode(n Node) NodeID {
	n.ID = NodeID(len(g.nodes) + 1)
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n.ID
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id-1] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Out returns the outgoing edge ids of n.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n-1] }

// In returns the incoming edge ids of n.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n-1] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts (or widens the guard of) an edge. It reports whether the
// edge is new. Duplicate edges (same endpoints, kind and indirect
// bookkeeping) have their guards joined with ∨.
func (g *Graph) AddEdge(e Edge) bool {
	key := edgeKey{from: e.From, to: e.To, kind: e.Kind, store: e.Store, load: e.Load, obj: e.Obj, field: e.Field}
	if id, ok := g.edgeIdx[key]; ok {
		old := &g.edges[id]
		old.Guard = guard.Or(old.Guard, e.Guard)
		return false
	}
	e.ID = EdgeID(len(g.edges))
	g.edges = append(g.edges, e)
	g.edgeIdx[key] = e.ID
	g.out[e.From-1] = append(g.out[e.From-1], e.ID)
	g.in[e.To-1] = append(g.in[e.To-1], e.ID)
	return true
}

// AddObjStore records that the store at ref.Store may define location l.
// Duplicates are merged by guard disjunction.
func (g *Graph) AddObjStore(l Loc, ref StoreRef) {
	li, ok := g.locIndex(l)
	refs := g.locOverflow[l]
	if ok {
		refs = g.objStores[li]
	}
	for i, r := range refs {
		if r.Store == ref.Store {
			refs[i].Guard = guard.Or(r.Guard, ref.Guard)
			return
		}
	}
	refs = append(refs, ref)
	if ok {
		g.objStores[li] = refs
		return
	}
	if g.locOverflow == nil {
		g.locOverflow = make(map[Loc][]StoreRef)
	}
	g.locOverflow[l] = refs
}

// ObjStores returns all stores that may define location l.
func (g *Graph) ObjStores(l Loc) []StoreRef {
	if li, ok := g.locIndex(l); ok {
		return g.objStores[li]
	}
	return g.locOverflow[l]
}

// EdgeCountByKind tallies edges per kind (for evaluation stats).
func (g *Graph) EdgeCountByKind() map[EdgeKind]int {
	out := make(map[EdgeKind]int)
	for i := range g.edges {
		out[g.edges[i].Kind]++
	}
	return out
}

// NodeString renders node n for reports.
func (g *Graph) NodeString(id NodeID) string {
	n := g.Node(id)
	if n.Kind == NodeObj {
		return g.Prog.Obj(n.Obj).Name
	}
	name := g.Prog.VarName(n.Var)
	if n.Def == ir.NoLabel {
		return name
	}
	return fmt.Sprintf("%s@ℓ%d", name, n.Def)
}

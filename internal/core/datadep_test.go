package core

import (
	"reflect"
	"testing"
	"unsafe"

	"canary/internal/bitset"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
)

// TestEdgeOpSize pins the packed effect-log edge: a thread's first pass
// logs about one per instruction, and a round holds every dirty thread's
// log at once.
func TestEdgeOpSize(t *testing.T) {
	if n := unsafe.Sizeof(edgeOp{}); n > 40 {
		t.Fatalf("edgeOp is %d bytes, want <= 40", n)
	}
}

// TestFinishedPassRetainsNoOverlay checks that what a finished Alg. 1
// pass hands to replay is its effect log alone. dataDepRound holds one
// result per dirty thread until the round's last pass ends; if that result
// could reach the pass's copy-on-write overlay (maps) or its join scratch
// (a bitset sized to every location), all of them would stay live at the
// build's peak.
func TestFinishedPassRetainsNoOverlay(t *testing.T) {
	var walk func(typ reflect.Type, path string, seen map[reflect.Type]bool)
	walk = func(typ reflect.Type, path string, seen map[reflect.Type]bool) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ {
		case reflect.TypeOf(guard.Formula{}):
			return // hash-consed and shared by the whole build
		case reflect.TypeOf(bitset.Set{}), reflect.TypeOf(passCtx{}), reflect.TypeOf(memState{}):
			t.Errorf("%s: a pass's result reaches %s", path, typ)
			return
		}
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s: a pass's result holds a map (%s)", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]", seen)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name, seen)
			}
		}
	}
	pass := reflect.TypeOf((*Builder).dataDepPass)
	if pass.NumOut() != 1 {
		t.Fatalf("dataDepPass returns %d values, want its effect log alone", pass.NumOut())
	}
	walk(pass.Out(0), "dataDepPass()", map[reflect.Type]bool{})

	// The pass still logs: on a program with branches (join merges) and
	// cross-thread stores, every thread's first pass yields facts and edges.
	ast, err := lang.Parse(fig2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(prog, DefaultBuild().withDefaults())
	for _, th := range prog.Threads {
		eff := b.dataDepPass(th)
		if len(eff.pts) == 0 || len(eff.edges) == 0 {
			t.Errorf("thread %d: first pass logged %d facts and %d edges, want both > 0", th.ID, len(eff.pts), len(eff.edges))
		}
	}
}

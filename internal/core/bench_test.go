package core

import (
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// BenchmarkInterferenceEval measures one Alg. 2 round (escape analysis plus
// the interference pass) on a catalogue-scale subject, on top of a fresh
// Alg. 1 round. The dense LocIndex tables keep the per-location bookkeeping
// in slices indexed by integer instead of maps keyed by (object, field)
// structs; allocs/op is the series to watch.
func BenchmarkInterferenceEval(b *testing.B) { benchInterferenceEval(b, 1200) }

// BenchmarkInterferenceEvalLarge is the same round on a ~40k-line Fig. 8
// subject, whose main thread forks every child: the MHP fork/join window
// queries dominate the interference pass there.
func BenchmarkInterferenceEvalLarge(b *testing.B) { benchInterferenceEval(b, 40000) }

func benchInterferenceEval(b *testing.B, lines int) {
	b.ReportAllocs()
	bld := NewBenchBuilder(lowerSweep(b, lines), DefaultBuild())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.BenchReset()
		bld.BenchDataDepRound()
		bld.BenchInterferenceRound()
	}
}

// BenchmarkBuildLarge measures the whole VFG build — every Alg. 1/Alg. 2
// fixpoint round — on a ~40k-line Fig. 8 subject. Each iteration builds a
// freshly lowered program (lowering is untimed): a lowered program memoizes
// CFG reachability, which a second build over it would inherit.
func BenchmarkBuildLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog := lowerSweep(b, 40000)
		b.StartTimer()
		Build(prog, DefaultBuild())
	}
}

// lowerSweep parses and lowers the Fig. 8 subject of the given size.
func lowerSweep(b *testing.B, lines int) *ir.Program {
	b.Helper()
	ast, err := lang.Parse(workload.Generate(workload.SizeSweep(1, lines, lines)[0]))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

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
	src := workload.Generate(workload.SizeSweep(1, lines, lines)[0])
	ast, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(ast, ir.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	bld := NewBenchBuilder(prog, DefaultBuild())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.BenchReset()
		bld.BenchDataDepRound()
		bld.BenchInterferenceRound()
	}
}

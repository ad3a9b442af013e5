package canary

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// TestParallelDeterminism analyzes every corpus program with Workers: 1 and
// Workers: 8 and requires byte-identical output: the same reports in the
// same order, and the same VFG shape. This is the contract the parallel
// pipeline promises — worker count is a throughput knob, never a semantics
// knob (see internal/core/parallel.go for how it is upheld).
func TestParallelDeterminism(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	checkers := append(AllCheckers(), ExtendedCheckers()...)
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)

			run := func(workers int) *Result {
				opt := DefaultOptions()
				opt.Workers = workers
				opt.Checkers = checkers
				res, err := Analyze(src, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			seq := run(1)
			par := run(8)

			if !reflect.DeepEqual(seq.Reports, par.Reports) {
				t.Errorf("reports differ between workers=1 and workers=8:\n  1: %+v\n  8: %+v",
					seq.Reports, par.Reports)
			}
			if seq.VFG.Nodes != par.VFG.Nodes || seq.VFG.Edges != par.VFG.Edges {
				t.Errorf("VFG shape differs: workers=1 %d nodes/%d edges, workers=8 %d nodes/%d edges",
					seq.VFG.Nodes, seq.VFG.Edges, par.VFG.Nodes, par.VFG.Edges)
			}
			if seq.VFG.DataDepEdges != par.VFG.DataDepEdges ||
				seq.VFG.InterferenceEdges != par.VFG.InterferenceEdges ||
				seq.VFG.FilteredEdges != par.VFG.FilteredEdges {
				t.Errorf("edge-kind counts differ: workers=1 dd=%d interf=%d filtered=%d, workers=8 dd=%d interf=%d filtered=%d",
					seq.VFG.DataDepEdges, seq.VFG.InterferenceEdges, seq.VFG.FilteredEdges,
					par.VFG.DataDepEdges, par.VFG.InterferenceEdges, par.VFG.FilteredEdges)
			}
		})
	}
}

// TestLoweringDeterministic lowers one branchy ~5k-line Fig. 8 subject
// twice in one process and requires identical instruction dumps, then
// builds it twice through NewAnalysis and requires byte-identical DOT.
// Lowering used to emit a join's φs in map-iteration order, so φ labels
// and variable IDs (and with them the DOT) changed from run to run.
func TestLoweringDeterministic(t *testing.T) {
	src := workload.Generate(workload.SizeSweep(2, 5000, 5000)[0])
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		prog, err := ir.Lower(ast, ir.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		phis := 0
		for _, in := range prog.Insts() {
			sb.WriteString(prog.String(in))
			sb.WriteByte('\n')
			if in.Op == ir.OpPhi {
				phis++
			}
		}
		if phis < 100 {
			t.Fatalf("subject lowers to %d φs; want a branchy one", phis)
		}
		return sb.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatal("two lowerings of the same program differ")
	}
	opt := DefaultOptions()
	opt.Workers = 1
	dot := func() []byte {
		a, err := (*Session)(nil).NewAnalysis(context.Background(), src, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.WriteDot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := dot(), dot(); !bytes.Equal(a, b) {
		t.Fatal("two builds of the same program write different DOT")
	}
}

package lang

import (
	"testing"
	"time"

	"canary/internal/workload"
)

// TestParseAllocPerSourceByte gates the parser's allocation volume on a
// Fig. 8 subject (~41k lines, the cold-large benchmark's size). Parsing
// pulls one token at a time from the lexer and slices token text out of
// the source, so what it allocates is essentially the AST: about 7 bytes
// per source byte. Materialising a token slice cost about 74.
func TestParseAllocPerSourceByte(t *testing.T) {
	if testing.Short() {
		t.Skip("parses a ~41k-line subject")
	}
	src := workload.Generate(workload.SizeSweep(1, 40000, 40000)[0])
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	perByte := float64(res.AllocedBytesPerOp()) / float64(len(src))
	t.Logf("Parse: %v/op, %d bytes/op over %d source bytes (%.1f per byte)", time.Duration(res.NsPerOp()), res.AllocedBytesPerOp(), len(src), perByte)
	if perByte >= 10 {
		t.Fatalf("Parse allocates %.1f bytes per source byte, want < 10", perByte)
	}
}

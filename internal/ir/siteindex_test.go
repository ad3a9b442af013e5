package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"canary/internal/lang"
	"canary/internal/workload"
)

// nestedForkSource forks children from inside branches, a loop, and a
// child thread: joined and never-joined children, at every nesting level.
const nestedForkSource = `
func leaf(c) {
  v = *c;
  print(*v);
}
func mid(c) {
  fork(l1, leaf, c);
  if (p) {
    fork(l2, leaf, c);
    join(l2);
  }
  x = malloc();
  join(l1);
  while (q) {
    fork(l3, leaf, c);
  }
}
func main() {
  cell = malloc();
  fork(a, mid, cell);
  if (r) {
    join(a);
  } else {
    fork(b, leaf, cell);
  }
  y = malloc();
  fork(d, mid, cell);
}
`

// childSiteBlocks returns the distinct blocks of thread th that hold one
// of its children's fork or join sites.
func childSiteBlocks(p *Program, th *Thread) []*Block {
	seen := map[*Block]bool{}
	var out []*Block
	for _, c := range p.Threads {
		if c.Parent != th.ID {
			continue
		}
		for _, l := range []Label{c.ForkSite, c.JoinSite} {
			if l == NoLabel {
				continue
			}
			if b := p.Inst(l).Block; !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// bruteReach returns the blocks strictly reachable from b, by a plain
// forward DFS that shares nothing with the index or the memo.
func bruteReach(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(x *Block) {
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				walk(s)
			}
		}
	}
	walk(b)
	return seen
}

// keepsRow reports whether the index should answer for b against a site
// block: b is a site block itself or holds a load or a store.
func keepsRow(b *Block, sites []*Block) bool {
	for _, s := range sites {
		if s == b {
			return true
		}
	}
	for _, i := range b.Insts {
		if i.Op == OpLoad || i.Op == OpStore {
			return true
		}
	}
	return false
}

// checkSiteIndex asserts, for every parent thread of p and every (block,
// site block) pair in either direction, that the sync-site index answers
// exactly when the block keeps a row and then agrees with bruteReach, and
// that Reaches agrees with bruteReach on the blocks' first instructions.
func checkSiteIndex(t *testing.T, name string, p *Program) {
	t.Helper()
	for _, th := range p.Threads {
		sites := childSiteBlocks(p, th)
		if len(sites) == 0 {
			continue
		}
		idx := &p.sites[th.ID]
		if idx.col == nil {
			t.Errorf("%s: thread %d has %d site blocks but no index", name, th.ID, len(sites))
			continue
		}
		reach := make(map[*Block]map[*Block]bool, len(th.Blocks))
		for _, b := range th.Blocks {
			reach[b] = bruteReach(b)
		}
		for _, b := range th.Blocks {
			for _, s := range sites {
				if s == b {
					continue
				}
				for _, q := range [2][2]*Block{{b, s}, {s, b}} {
					from, to := q[0], q[1]
					want := reach[from][to]
					got, ok := idx.reaches(from.local, to.local)
					if ok != keepsRow(b, sites) || ok && got != want {
						t.Fatalf("%s: thread %d: index(block %d -> block %d) = %v (answered %v), DFS says %v",
							name, th.ID, from.ID, to.ID, got, ok, want)
					}
					if len(from.Insts) > 0 && len(to.Insts) > 0 {
						if r := p.Reaches(from.Insts[0].Label, to.Insts[0].Label); r != want {
							t.Fatalf("%s: thread %d: Reaches(block %d -> block %d) = %v, DFS says %v",
								name, th.ID, from.ID, to.ID, r, want)
						}
					}
				}
			}
		}
	}
}

func lowerForIndex(t *testing.T, name, src string) *Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	p, err := Lower(ast, DefaultOptions())
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return p
}

// exampleSources returns the checked-in example programs: the .cn files
// and the raw-string program constants of the example mains that parse as
// lang source.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	cn, _ := filepath.Glob("../../examples/*/*.cn")
	for _, f := range cn {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(data)
	}
	mains, _ := filepath.Glob("../../examples/*/main.go")
	for _, f := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err == nil && strings.Contains(src, "func main(") {
				if _, err := lang.Parse(src); err == nil {
					out[f+":"+strconv.Itoa(int(lit.Pos()))] = src
				}
			}
			return true
		})
	}
	return out
}

// TestSiteIndexExactOnCorpus checks the sync-site index against a
// brute-force DFS on the testdata corpus, the examples, and a nested-fork
// program.
func TestSiteIndexExactOnCorpus(t *testing.T) {
	srcs := exampleSources(t)
	if len(srcs) < 5 {
		t.Fatalf("only %d example programs found", len(srcs))
	}
	corpus, _ := filepath.Glob("../../testdata/*.cn")
	if len(corpus) < 20 {
		t.Fatalf("only %d corpus programs found", len(corpus))
	}
	for _, f := range corpus {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(data)
	}
	srcs["nested"] = nestedForkSource
	for name, src := range srcs {
		checkSiteIndex(t, name, lowerForIndex(t, name, src))
	}
}

// TestSiteIndexExactOnWorkloads checks the index on ~200 randomly drawn
// small workload subjects. Each subject's main becomes a function forked
// twice by a new main (once joined under a branch, once never joined), so
// the subject's own forks and joins sit in child threads, one level down.
func TestSiteIndexExactOnWorkloads(t *testing.T) {
	prop := func(seed int64, lines uint16, tp, fpc, fig2, ord, lock, fan uint8) bool {
		spec := workload.Spec{
			Name: "quick", Seed: seed, Lines: int(lines % 400),
			TruePositives: int(tp % 3), CanaryFPs: int(fpc % 2),
			Fig2Traps: int(fig2 % 2), OrderTraps: int(ord % 3),
			LockTraps: int(lock % 2), Fan: 1 + int(fan%3),
		}
		src := strings.Replace(workload.Generate(spec), "func main() {", "func subject() {", 1) + `
func main() {
  if (nest) {
    fork(n1, subject);
    join(n1);
  }
  fork(n2, subject);
}
`
		name := "quick seed " + strconv.FormatInt(seed, 10)
		checkSiteIndex(t, name, lowerForIndex(t, name, src))
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

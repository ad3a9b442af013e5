package main

import (
	"regexp"
	"sort"
	"strings"
)

// The oracle reads the ground truth off the generated text itself, not off
// the analyzer: internal/workload names every seeded bug's freeing worker
// tp_uaf_workerN (realizable) or fpc_uaf_workerN (infeasible but
// unprunable), and under the default options Canary reports each of them
// exactly once while pruning every fig2_, ord_, lock_ and sa_ trap. So the
// reported source functions of a correct run are exactly the tp_ and fpc_
// workers declared in the source.
var seededWorker = regexp.MustCompile(`(?m)^func ((?:tp|fpc)_uaf_worker\d+)\(`)

// expectedSources returns the sorted seeded source functions of src.
func expectedSources(src string) []string {
	var out []string
	for _, m := range seededWorker.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1])
	}
	sort.Strings(out)
	return out
}

// sameSources reports whether the reported source functions, taken as a
// multiset, equal want (sorted).
func sameSources(got []string, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	sort.Strings(g)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// without returns the sorted set minus one name.
func without(set []string, name string) []string {
	out := make([]string, 0, len(set))
	for _, s := range set {
		if s != name {
			out = append(out, s)
		}
	}
	return out
}

// lineCount counts source lines.
func lineCount(src string) int { return strings.Count(src, "\n") }

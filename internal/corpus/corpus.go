// Package corpus loads the checked-in analysis inputs that exactness tests
// sweep over: the testdata programs, and the example programs (their .cn
// files plus the raw-string programs embedded in the example mains).
package corpus

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"canary/internal/lang"
)

// Programs returns every checked-in program under the repository root
// dir, keyed by file (and, for example mains, by literal position).
func Programs(dir string) (map[string]string, error) {
	out := map[string]string{}
	var files []string
	for _, pat := range []string{"testdata/*.cn", "examples/*/*.cn"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out[f] = string(data)
	}
	mains, err := filepath.Glob(filepath.Join(dir, "examples/*/main.go"))
	if err != nil {
		return nil, err
	}
	for _, f := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			return nil, err
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
	if len(out) < 25 {
		return nil, fmt.Errorf("corpus: only %d programs under %s", len(out), dir)
	}
	return out, nil
}

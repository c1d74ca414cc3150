package obs

// A metric-name lint in the style of the module's doclint_test.go: every
// string-literal metric name a non-test call site passes to Counter,
// Histogram or Quality must have a metricHelp entry, so /metrics never
// serves a stale or generic HELP line for a name the code actually
// registers. Names built at run time (core's "crr."+"kept_edges" quality
// prefixes, tasks' "suite."+task) are not literals and are not checked.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestMetricNamesHaveHelp(t *testing.T) {
	root := filepath.Join("..", "..")
	registering := map[string]bool{"Counter": true, "Histogram": true, "Quality": true}
	checked := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "results" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			// Nested modules (the pipeline benchmark) register nothing.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registering[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(lit.Pos()), err)
				return true
			}
			checked++
			if _, ok := metricHelp[name]; !ok {
				t.Errorf("%s: %s(%q) has no metricHelp entry in serve.go", fset.Position(lit.Pos()), sel.Sel.Name, name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against a walk that silently found nothing (a moved root, a
	// renamed method): the module registers dozens of literal names.
	if checked < 20 {
		t.Fatalf("lint checked only %d literal metric names; the walk is broken", checked)
	}
}

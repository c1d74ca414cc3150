package obs

// A metric-name lint in the style of the module's doclint_test.go: every
// string-literal metric name a non-test call site passes to Counter,
// Histogram or Quality must be declared in metric.go as that kind, so
// /metrics never serves a generic HELP line, and no gate reads a guessed
// direction, for a name the code actually registers. Names built at run
// time (core's "crr."+"kept_edges" quality prefixes, tasks'
// "suite."+task) are not literals; TestRegisteredMetricsDeclared checks
// them by running the kernels that build them.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestMetricNamesHaveHelp(t *testing.T) {
	root := filepath.Join("..", "..")
	registering := map[string]Kind{"Counter": KindCounter, "Histogram": KindHistogram, "Quality": KindQuality}
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
			if !ok {
				return true
			}
			kind, ok := registering[sel.Sel.Name]
			if !ok {
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
			if got := Describe(name).Kind; got != kind {
				t.Errorf("%s: %s(%q) is declared in metric.go as kind %d, want %d", fset.Position(lit.Pos()), sel.Sel.Name, name, got, kind)
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

// TestMetricDeclarations pins the table's vocabulary: every declaration
// has a kind (run_info aside), a better direction in the manifest's
// spelling, a unit from the documented set and a help sentence; and the
// histograms that obsreport diff gates are exactly the two duration
// families.
func TestMetricDeclarations(t *testing.T) {
	units := map[string]bool{"": true, "ns": true, "bytes": true, "micros": true, "edges": true}
	var gated []string
	for name, m := range declared {
		if (m.Kind == 0) != (name == "run_info") || m.Kind > KindQuality {
			t.Errorf("%s: kind %d", name, m.Kind)
		}
		if m.Better != Lower && m.Better != Higher && m.Better != Info {
			t.Errorf("%s: better %q", name, m.Better)
		}
		if m.Kind == KindCounter && m.Better != Info {
			t.Errorf("%s: counter declared %s; counters never gate", name, m.Better)
		}
		if !units[m.Unit] {
			t.Errorf("%s: unit %q", name, m.Unit)
		}
		if m.Help == "" || !strings.HasSuffix(m.Help, ".") {
			t.Errorf("%s: help %q is not a sentence", name, m.Help)
		}
		if m.Kind == KindHistogram && m.Unit == "ns" && m.Better == Lower {
			gated = append(gated, name)
		}
	}
	slices.Sort(gated)
	if want := []string{"crr.sweep.ratio_ns", "msbfs.batch_ns"}; !slices.Equal(gated, want) {
		t.Errorf("gated histograms = %v, want %v", gated, want)
	}
	if m := Describe("no.such.metric"); m.Kind != 0 || m.Better != Info || m.Help != "edgeshed metric no.such.metric." {
		t.Errorf("undeclared name reads as %+v", m)
	}
}

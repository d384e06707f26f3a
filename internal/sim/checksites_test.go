package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// profChecks is the simulator's inventory of dormant profiler checks —
// the tests of s.pr against nil and of pd.profiled that a plain run
// executes — per function, with the event each runs at. The disabled-
// profiler overhead guard (internal/bench) prices a plain run at these
// multiplicities: 4 per run, 1 per block execution (chargeEntry on a
// static machine, taken on an in-order one), 1 per in-order stall and
// 1 per L1 miss (miss's two checks sit on exclusive paths).
var profChecks = map[string]struct {
	n     int
	event string
}{
	"getState":    {1, "run"},
	"RunCtx":      {2, "run"},
	"execBlock":   {1, "run"}, // the halt
	"chargeEntry": {1, "block"},
	"taken":       {1, "block"},
	"stall":       {1, "stall"},
	"miss":        {2, "miss"},
}

// The inventory is derived from the code: a check added anywhere in the
// package fails this test until the inventory, and so the guard's
// count, covers it.
func TestProfilerCheckSites(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if isProfCheck(n) {
					got[fn.Name.Name]++
				}
				return true
			})
		}
	}
	for fn, n := range got {
		if profChecks[fn].n != n {
			t.Errorf("%s holds %d profiler checks, the inventory %d", fn, n, profChecks[fn].n)
		}
	}
	for fn, c := range profChecks {
		if got[fn] != c.n {
			t.Errorf("the inventory lists %d profiler checks in %s, the code has %d", c.n, fn, got[fn])
		}
	}
}

// isProfCheck reports whether n tests the profiler: x.pr != nil, or a
// condition reading x.profiled.
func isProfCheck(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		sel, ok := n.X.(*ast.SelectorExpr)
		id, isIdent := n.Y.(*ast.Ident)
		return ok && sel.Sel.Name == "pr" && n.Op == token.NEQ && isIdent && id.Name == "nil"
	case *ast.IfStmt:
		sel, ok := n.Cond.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "profiled"
	}
	return false
}

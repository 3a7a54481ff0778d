package bcl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reproducedAPI lists the functions outside tests that no Go file
// calls yet and that stay anyway, each with its reason.
var reproducedAPI = map[string]string{
	"bcl/internal/pvm.(*Task).GetInstance": "PVM's pvm_getinst, reproduced API",
	"bcl/internal/pvm.(*Task).RecvRaw":     "PVM's raw receive, reproduced API",
	"bcl.(*Machine).FlightRecorder":        "public API named in DESIGN §8",
}

// TestEveryFunctionIsReferenced: a function or method declared outside
// tests must be named by some Go file of the module other than at its
// declaration, tests included, or be listed in reproducedAPI. The check
// is by name, so a method shares its name's references with every
// other method of that name; comments do not count.
func TestEveryFunctionIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	refs := map[string]int{}       // identifier -> occurrences, declarations included
	decls := map[string]int{}      // function name -> declarations
	checked := map[string]string{} // non-test function, qualified -> its name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		pkg := "bcl"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				refs[n.Name]++
			case *ast.FuncDecl:
				name := n.Name.Name
				decls[name]++
				if test || name == "main" || name == "init" || name == "_" {
					break
				}
				q := pkg + "." + name
				if n.Recv != nil {
					q = pkg + ".(" + recvType(n.Recv.List[0].Type) + ")." + name
				}
				checked[q] = name
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreferenced []string
	for q, name := range checked {
		_, allowed := reproducedAPI[q]
		switch used := refs[name] > decls[name]; {
		case !used && !allowed:
			unreferenced = append(unreferenced, q)
		case used && allowed:
			t.Errorf("%s is referenced now: remove it from reproducedAPI", q)
		}
	}
	sort.Strings(unreferenced)
	for _, q := range unreferenced {
		t.Errorf("%s is referenced by no Go file: delete it, or list it in reproducedAPI with a reason", q)
	}
	for q := range reproducedAPI {
		if checked[q] == "" {
			t.Errorf("reproducedAPI lists %s, which is not declared", q)
		}
	}
}

// recvType renders a method receiver's type as Go does in a qualified
// method name: T or *T, without type parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

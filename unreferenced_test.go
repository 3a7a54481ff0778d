package bcl

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
// tests must be referenced by some Go file of the module other than at
// its declaration, tests included, or be listed in reproducedAPI. The
// module is type-checked (go/types, imports from the compiler's export
// data, `go list -export`), so a method counts as referenced only
// through its own receiver type: a call of another type's method of
// the same name does not count. A method may also be called through an
// interface, so it counts as referenced when its type is named
// somewhere other than in its methods' receivers and implements an
// interface with a method of that name: one the module names or spells
// out, or one declared by a package it imports (fmt.Stringer, say).
func TestEveryFunctionIsReferenced(t *testing.T) {
	mod := goList(t, "./...")
	extra := map[string]bool{} // what test files import from outside the module
	for _, p := range mod {
		for _, path := range slices.Concat(p.TestImports, p.XTestImports) {
			extra[path] = true
		}
	}
	exports := map[string]string{}
	for _, p := range goList(t, append([]string{"-export", "-deps", "./..."}, slices.Sorted(maps.Keys(extra))...)...) {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })

	checked := map[string]bool{} // non-test function, qualified name
	used := map[string]bool{}    // referenced functions, qualified
	live := map[string]bool{}    // types named outside their methods' receivers, qualified
	var methods []*types.Func    // non-test methods, for the interface rule
	ifaces := map[*types.Interface]bool{}
	for _, p := range mod {
		files := parseFiles(t, fset, p.Dir, p.GoFiles)
		tests := parseFiles(t, fset, p.Dir, p.TestGoFiles)
		info := newInfo()
		pkg := check(fset, p.ImportPath, gc, slices.Concat(files, tests), info)
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") || fd.Name.Name == "_" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				checked[funcKey(fn)] = true
				if fd.Recv != nil {
					methods = append(methods, fn)
				}
			}
		}
		uses(slices.Concat(files, tests), info, used, live)
		collectInterfaces(info, ifaces)
		if len(p.XTestGoFiles) > 0 {
			xtests, xinfo := parseFiles(t, fset, p.Dir, p.XTestGoFiles), newInfo()
			check(fset, p.ImportPath+"_test", self{pkg, gc}, xtests, xinfo)
			uses(xtests, xinfo, used, live)
			collectInterfaces(xinfo, ifaces)
		}
		for _, imp := range pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
					addInterface(tn.Type(), ifaces)
				}
			}
		}
	}
	addInterface(types.Universe.Lookup("error").Type(), ifaces)
	for _, m := range methods {
		if !used[funcKey(m)] && live[typeKey(recvNamed(m))] && implements(m, ifaces) {
			used[funcKey(m)] = true
		}
	}

	var unreferenced []string
	for q := range checked {
		_, allowed := reproducedAPI[q]
		switch {
		case !used[q] && !allowed:
			unreferenced = append(unreferenced, q)
		case used[q] && allowed:
			t.Errorf("%s is referenced now: remove it from reproducedAPI", q)
		}
	}
	sort.Strings(unreferenced)
	for _, q := range unreferenced {
		t.Errorf("%s is referenced by no Go file: delete it, or list it in reproducedAPI with a reason", q)
	}
	for q := range reproducedAPI {
		if !checked[q] {
			t.Errorf("reproducedAPI lists %s, which is not declared", q)
		}
	}
}

// listed is the part of `go list -json` the check reads.
type listed struct {
	ImportPath, Dir, Export            string
	GoFiles, TestGoFiles, XTestGoFiles []string
	TestImports, XTestImports          []string
}

// goList runs `go list -json` over args.
func goList(t *testing.T, args ...string) []listed {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listed
	for d := json.NewDecoder(bytes.NewReader(out)); d.More(); {
		var p listed
		if err := d.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func parseFiles(t *testing.T, fset *token.FileSet, dir string, names []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// check type-checks one package. Errors are ignored: the module builds,
// and the only ones possible come from an external test package seeing
// its package under test twice, from source (with the in-package test
// files) and from export data through another import; they leave every
// identifier resolved.
func check(fset *token.FileSet, path string, imp types.Importer, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(path, fset, files, info)
	return pkg
}

// self imports the package under test from source, for its external
// test package, and everything else through the export data.
type self struct {
	pkg *types.Package
	types.Importer
}

func (s self) Import(path string) (*types.Package, error) {
	if path == s.pkg.Path() {
		return s.pkg, nil
	}
	return s.Importer.Import(path)
}

// uses records the functions info's identifiers reference, and the
// named types they reference other than as a method's receiver.
func uses(files []*ast.File, info *types.Info, used, live map[string]bool) {
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				receivers[recvIdent(fd.Recv.List[0].Type)] = true
			}
		}
	}
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			used[funcKey(obj)] = true
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok && !receivers[id] {
				live[typeKey(named)] = true
			}
		}
	}
}

// recvIdent is the type name in a method's receiver: T in T, *T, T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvIdent(e.X)
	case *ast.IndexExpr:
		return recvIdent(e.X)
	case *ast.IndexListExpr:
		return recvIdent(e.X)
	case *ast.Ident:
		return e
	}
	return nil
}

// recvNamed is the named type a method is declared on.
func recvNamed(m *types.Func) *types.Named {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named)
}

func typeKey(named *types.Named) string {
	if named.Obj().Pkg() == nil {
		return named.Obj().Name()
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// funcKey names a function as the report does: pkg.F or pkg.(T).M /
// pkg.(*T).M, a generic's methods by their declaration.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil { // a method of the universe's error
		return fn.Name()
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv, star := sig.Recv().Type(), ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, star = p.Elem(), "*"
	}
	named, ok := recv.(*types.Named)
	if !ok { // an interface's method
		return fn.FullName()
	}
	return fn.Pkg().Path() + ".(" + star + named.Obj().Name() + ")." + fn.Name()
}

// collectInterfaces adds every interface a package names or spells out.
func collectInterfaces(info *types.Info, ifaces map[*types.Interface]bool) {
	for _, tv := range info.Types {
		addInterface(tv.Type, ifaces)
	}
	for _, objs := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for _, obj := range objs {
			if tn, ok := obj.(*types.TypeName); ok && !isGeneric(tn.Type()) {
				addInterface(tn.Type(), ifaces)
			}
		}
	}
}

func addInterface(typ types.Type, ifaces map[*types.Interface]bool) {
	if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ifaces[it] = true
	}
}

func isGeneric(typ types.Type) bool {
	named, ok := typ.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// implements reports whether m's receiver type implements an interface
// that has a method of m's name, which may then call it.
func implements(m *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := recvNamed(m)
	if isGeneric(recv) {
		return false
	}
	ptr := types.NewPointer(recv)
	for it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == m.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

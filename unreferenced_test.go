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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUncalled lists the functions outside tests that no non-test Go
// file references and that stay anyway, each with its reason: (a) API
// the paper layers (BCL, EADI-2, MPI, PVM), or (b) an instrument a
// named test reads that the package exposes no other way.
var keptUncalled = map[string]string{
	"bcl.(*Machine).FlightRecorder":          "(a) public API named in DESIGN §8",
	"bcl/internal/mpi.(*Comm).Allgather":     "(a) MPI_Allgather",
	"bcl/internal/mpi.(*Comm).Alltoall":      "(a) MPI_Alltoall",
	"bcl/internal/mpi.(*Comm).Dup":           "(a) MPI_Comm_dup",
	"bcl/internal/mpi.(*Comm).Gather":        "(a) MPI_Gather",
	"bcl/internal/mpi.(*Comm).Irecv":         "(a) MPI_Irecv",
	"bcl/internal/mpi.(*Comm).Isend":         "(a) MPI_Isend",
	"bcl/internal/mpi.(*Comm).Scatter":       "(a) MPI_Scatter",
	"bcl/internal/mpi.(*Request).Test":       "(a) MPI_Test",
	"bcl/internal/mpi.Waitall":               "(a) MPI_Waitall",
	"bcl/internal/pvm.(*Task).Barrier":       "(a) pvm_barrier over the whole machine",
	"bcl/internal/pvm.(*Task).GetInstance":   "(a) pvm_getinst",
	"bcl/internal/pvm.(*Task).GroupBarrier":  "(a) pvm_barrier",
	"bcl/internal/pvm.(*Task).GroupBcast":    "(a) pvm_bcast",
	"bcl/internal/pvm.(*Task).GroupSize":     "(a) pvm_gsize",
	"bcl/internal/pvm.(*Task).JoinGroup":     "(a) pvm_joingroup",
	"bcl/internal/pvm.(*Task).Mcast":         "(a) pvm_mcast",
	"bcl/internal/pvm.(*Task).RecvRaw":       "(a) PVM's raw receive",
	"bcl/internal/pvm.(*Task).UseColl":       "(a) PVM's counterpart of mpi.(*Comm).AttachColl: its group operations over the NIC offload",
	"bcl/internal/oskernel.(*Kernel).Exit":   "(a) the BCL kernel module's process teardown (DESIGN §7), the one caller of mem.(*PinTable).Invalidate",
	"bcl/internal/sim.(*Env).Switches":       "(b) TestSwitchesPerEventBudget's coroutine switches per event",
	"bcl/internal/sim.(*Proc).Done":          "(b) the process-exit signal kernel_test.go and the nested_order/order goldens join on",
	"bcl/internal/sim.(*Proc).Join":          "(b) the blocking join of kernel_test.go and the nested_order/order goldens",
	"bcl/internal/sim.NewSignal":             "(b) the free-standing signal of edge_test.go and the nested_order golden",
	"bcl/internal/sim.(*Signal).Fired":       "(b) kernel_test.go's and edge_test.go's check that a process finished or a signal fired",
	"bcl/internal/sim.(*Ring).Cap":           "(b) the slot count TestRetiredSendsLeaveTheReplayOrder and TestShadowMatchesMapModel bound: a ring behind a stuck head stays small",
	"bcl/internal/nic/gbn.(*Sender).NextSeq": "(b) the flow's next sequence, which TestWindowBackpressure and TestStaleEpochsAreDiscarded read once the window has emptied",
	"bcl/internal/ulc.(*Port).SendUnchecked": "(b) the protection-gap demonstrator of TestUnregisteredBufferRejectedByLibraryOnly (ROADMAP item 10)",
}

// TestEveryFunctionIsReferenced: a function or method declared outside
// tests must be referenced by some non-test Go file of the module
// (commands, examples and the benchmark included) other than at its
// declaration, or be listed in keptUncalled: a function only tests call
// is kept for tests alone. The module's non-test files are type-checked
// (go/types, imports from the compiler's export data, `go list
// -export`), so a method counts as referenced only through its own
// receiver type: a call of another type's method of the same name does
// not count. A method may also be called through an interface, so it
// counts as referenced when its type is named somewhere other than in
// its methods' receivers and implements an interface with a method of
// that name: one the module names or spells out, or one declared by a
// package it imports (fmt.Stringer, say).
func TestEveryFunctionIsReferenced(t *testing.T) {
	mod := goList(t, "./...")
	exports := map[string]string{}
	for _, p := range goList(t, "-export", "-deps", "./...") {
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
		info := newInfo()
		conf := types.Config{Importer: gc}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
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
		uses(files, info, used, live)
		collectInterfaces(info, ifaces)
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
		_, kept := keptUncalled[q]
		switch {
		case !used[q] && !kept:
			unreferenced = append(unreferenced, q)
		case used[q] && kept:
			t.Errorf("%s is referenced outside tests now: remove it from keptUncalled", q)
		}
	}
	sort.Strings(unreferenced)
	for _, q := range unreferenced {
		t.Errorf("%s is referenced by no non-test Go file: delete it, or list it in keptUncalled with a reason", q)
	}
	for q := range keptUncalled {
		if !checked[q] {
			t.Errorf("keptUncalled lists %s, which is not declared", q)
		}
	}
}

// listed is the part of `go list -json` the check reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
}

// goList runs `go list -json` over args.
func goList(t *testing.T, args ...string) []listed {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Export,GoFiles"}, args...)...)
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

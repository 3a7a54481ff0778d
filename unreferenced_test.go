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
	"reflect"
	"sort"
	"strconv"
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
	m := loadModule(t)
	checked := map[string]bool{} // non-test function, qualified name
	used := map[string]bool{}    // referenced functions, qualified
	live := map[string]bool{}    // types named outside their methods' receivers, qualified
	var methods []*types.Func    // non-test methods, for the interface rule
	ifaces := map[*types.Interface]bool{}
	for _, p := range m {
		files, info := p.files, p.info
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
		for _, imp := range p.pkg.Imports() {
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

// checkedPkg is one of the module's packages, its non-test files
// type-checked.
type checkedPkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// module caches the type-check both rules share.
var (
	module     []checkedPkg
	moduleFset *token.FileSet
)

// loadModule type-checks the module's non-test files, importing their
// dependencies from the compiler's export data (`go list -export`).
func loadModule(t *testing.T) []checkedPkg {
	t.Helper()
	if module != nil {
		return module
	}
	exports := map[string]string{}
	for _, p := range goList(t, "-export", "-deps", "./...") {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var pkgs []checkedPkg
	for _, p := range goList(t, "./...") {
		files := parseFiles(t, fset, p.Dir, p.GoFiles)
		info := newInfo()
		pkg, err := (&types.Config{Importer: gc}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, checkedPkg{files, info, pkg})
	}
	module, moduleFset = pkgs, fset
	return pkgs
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
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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

// keptUnused lists the struct fields outside tests that no non-test Go
// file both writes and reads and that stay anyway, each with its
// reason: (a) API the paper layers, (b) an instrument a named test
// reads, or (c) a field of benchmark/, which changes only with the
// benchmark.
var keptUnused = map[string]string{
	"bcl.MachineConfig.Fabric":               "(a) the public Machine's fabric (README); TestMachineOverMesh sets it",
	"bcl.MachineConfig.Profile":              "(a) the public Machine's cost profile (README); TestProfileVariants sets it",
	"bcl.MachineConfig.Seed":                 "(a) the public Machine's seed (README); TestDeterministicAcrossRuns sets it",
	"bcl/internal/pvm.Buffer.Len":            "(a) pvm_bufinfo's byte count, beside the Src and Tag a receive reads",
	"bcl/internal/eadi.CollContext.LastDead": "(b) the dead-member mask TestOffloadInteriorDeath reads after a member dies",
	"bcl/internal/svc.DriverStats.AuthFails": "(b) the failed handshakes TestKVSessionsAndCache holds at zero",
	"bcl/benchmark.mark.bytes":               "(c) benchmark/'s per-pass marker",
	"bcl/benchmark.mark.failed":              "(c) benchmark/'s per-pass marker",
	"bcl/benchmark.mark.ops":                 "(c) benchmark/'s per-pass marker",
	"bcl/benchmark.workload.why":             "(c) benchmark/'s workload note, which its bench_test.go matches to BENCHMARK.json",
}

// TestEveryFieldIsUsed: a struct field declared outside tests must be
// written by some non-test Go file and read by one, or be listed in
// keptUnused: a field nothing reads is a store that moves no number,
// and one nothing sets is a knob no run turns.
//
// A field is written where it is assigned or set in a composite
// literal; a store through it (x.f.g = v, x.f[i]++, delete(x.f, k))
// writes it too, and a store through a pointer field reads it. Having
// its address taken (&x.f, &x.f[i], an array field sliced) or being the
// value receiver of a pointer method both writes and reads it, since
// the pointer may be read through. Any other use reads it,
// except a copy into the same field in the same assignment position
// (q.F = scale(p.F), T{F: p.F}). The fields of a struct used as a map
// key or compared with ==, and the exported fields of a JSON-encoded
// type, are both written and read; a promoted selection uses its
// embedded fields.
func TestEveryFieldIsUsed(t *testing.T) {
	m := loadModule(t)
	u := fieldUse{read: map[string]bool{}, written: map[string]bool{}}
	declared := map[string]string{} // fieldKey -> report name
	for _, p := range m {
		for _, f := range p.files {
			declaredFields(p.pkg.Path(), f, p.info, declared)
			u.file(f, p.info)
		}
		for _, tv := range p.info.Types {
			if mt, ok := tv.Type.Underlying().(*types.Map); ok {
				u.both(mt.Key(), false, map[types.Type]bool{})
			}
		}
	}

	var flagged []string
	seen := map[string]bool{}
	for pos, name := range declared {
		seen[name] = true
		_, kept := keptUnused[name]
		var missing []string
		if !u.written[pos] {
			missing = append(missing, "written")
		}
		if !u.read[pos] {
			missing = append(missing, "read")
		}
		switch {
		case len(missing) > 0 && !kept:
			flagged = append(flagged, name+" is never "+strings.Join(missing, " or ")+" outside tests")
		case len(missing) == 0 && kept:
			t.Errorf("%s is written and read outside tests now: remove it from keptUnused", name)
		}
	}
	sort.Strings(flagged)
	for _, msg := range flagged {
		t.Errorf("%s: delete it, or list it in keptUnused with a reason", msg)
	}
	for name := range keptUnused {
		if !seen[name] {
			t.Errorf("keptUnused lists %s, which is not declared", name)
		}
	}
}

// fieldUse records which fields the module's non-test files write and
// read, by fieldKey.
type fieldUse struct {
	read, written map[string]bool
}

// fieldKey names a field by its declaring file, line and name: export
// data records a field's line but not its column.
func fieldKey(v *types.Var) string {
	pos := moduleFset.Position(v.Origin().Pos())
	return pos.Filename + ":" + strconv.Itoa(pos.Line) + ":" + v.Name()
}

// file classifies every field use in f.
func (u *fieldUse) file(f *ast.File, info *types.Info) {
	stored := map[ast.Expr]bool{}     // selections on a store path: written, not read
	copied := map[*ast.Ident]string{} // a selection's field copied into the same field: not a read
	store := func(e ast.Expr) { u.store(e, info, stored) }
	addressed := func(e ast.Expr) { u.store(e, info, map[ast.Expr]bool{}) } // written, and read through the pointer
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				store(l)
				if len(n.Lhs) == len(n.Rhs) {
					if v := selectedField(l, info); v != nil {
						sameField(n.Rhs[i], v, info, copied)
					}
				}
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						store(e)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				addressed(n.X)
			}
		case *ast.SliceExpr:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Array); ok {
				addressed(n.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear" || b.Name() == "copy") {
					store(n.Args[0])
				}
			}
			if isJSONCall(n.Fun, info) {
				for _, a := range n.Args {
					u.both(info.TypeOf(a), true, map[types.Type]bool{})
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.both(info.TypeOf(n.X), false, map[types.Type]bool{})
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(n).Underlying()
			if p, ok := typ.(*types.Pointer); ok { // an elided &T{...}
				typ = p.Elem().Underlying()
			}
			st, ok := typ.(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					v := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					u.written[fieldKey(v)] = true
					sameField(kv.Value, v, info, copied)
				} else {
					u.written[fieldKey(st.Field(i))] = true
				}
			}
		case *ast.StructType:
			if st, ok := info.TypeOf(n).(*types.Struct); ok {
				for i := range st.NumFields() {
					if reflect.StructTag(st.Tag(i)).Get("json") != "" {
						u.both(st, true, map[types.Type]bool{})
						break
					}
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			u.embedded(sel)
			if sel.Kind() == types.MethodVal {
				if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr && !sel.Indirect() {
					if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
						addressed(n.X)
					}
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			if sel := info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal && !stored[s] {
				if v := sel.Obj().(*types.Var); copied[s.Sel] != fieldKey(v) {
					u.read[fieldKey(v)] = true
				}
			}
		}
		return true
	})
}

// store marks the field e selects, if any, as written and not read,
// and follows the store into the value that holds it: through a struct
// or array field, and through a slice or map field's elements, but not
// through a pointer, which the store reads.
func (u *fieldUse) store(e ast.Expr, info *types.Info, stored map[ast.Expr]bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		u.written[fieldKey(sel.Obj().(*types.Var))] = true
		stored[e] = true
		if !sel.Indirect() {
			u.store(e.X, info, stored)
		}
	case *ast.IndexExpr:
		if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
			u.store(e.X, info, stored)
		}
	}
}

// embedded marks the embedded fields a promoted selection goes through
// as both written and read.
func (u *fieldUse) embedded(sel *types.Selection) {
	typ := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		f := typ.Underlying().(*types.Struct).Field(i)
		u.written[fieldKey(f)], u.read[fieldKey(f)] = true, true
		typ = f.Type()
	}
}

// both marks the fields of typ, and of the struct types its values
// hold, as written and read: all of them for a compared or map-key
// type, the exported ones through pointers, slices and maps for a
// JSON-encoded one.
func (u *fieldUse) both(typ types.Type, json bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch t := typ.Underlying().(type) {
	case *types.Struct:
		for i := range t.NumFields() {
			if f := t.Field(i); !json || f.Exported() {
				u.written[fieldKey(f)], u.read[fieldKey(f)] = true, true
				u.both(f.Type(), json, seen)
			}
		}
	case *types.Array:
		u.both(t.Elem(), json, seen)
	case *types.Pointer:
		if json {
			u.both(t.Elem(), json, seen)
		}
	case *types.Slice:
		if json {
			u.both(t.Elem(), json, seen)
		}
	case *types.Map:
		if json {
			u.both(t.Elem(), json, seen)
		}
	}
}

// selectedField is the field e selects, or nil.
func selectedField(e ast.Expr, info *types.Info) *types.Var {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if sel := info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var)
		}
	}
	return nil
}

// sameField records the selections of v inside e, which copy v into v.
func sameField(e ast.Expr, v *types.Var, info *types.Info, copied map[*ast.Ident]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			if w := selectedField(s, info); w != nil && w.Origin() == v.Origin() {
				copied[s.Sel] = fieldKey(v)
			}
		}
		return true
	})
}

// isJSONCall reports whether fun is a function or method of
// encoding/json.
func isJSONCall(fun ast.Expr, info *types.Info) bool {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.Ident:
		id = f
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json"
}

// declaredFields names, by position, every field the struct types of
// f declare: pkg.Type.field, a nested anonymous struct's fields through
// the field that holds it, a function-local one's through the function.
func declaredFields(pkg string, f *ast.File, info *types.Info, out map[string]string) {
	var stack []string
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		name := ""
		switch n := n.(type) {
		case *ast.FuncDecl:
			name = n.Name.Name
		case *ast.TypeSpec:
			name = n.Name.Name
		case *ast.Field:
			if len(n.Names) == 1 {
				name = n.Names[0].Name
			}
		case *ast.StructType:
			if st, ok := info.TypeOf(n).(*types.Struct); ok {
				for i := range st.NumFields() {
					if fv := st.Field(i); fv.Name() != "_" {
						out[fieldKey(fv)] = pkg + "." + strings.Join(append(stack, fv.Name()), ".")
					}
				}
			}
		}
		if name == "" {
			return true
		}
		stack = append(stack, name)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			return c != nil && visit(c)
		})
		stack = stack[:len(stack)-1]
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool { return n != nil && visit(n) })
}

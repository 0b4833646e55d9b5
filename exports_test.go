package mobilecache

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that
// stay although no non-test file references them. Each entry says what
// need keeps it. Keys are written the way the scan reports them:
// pkg.Name, pkg.Type.Method or pkg.(*Type).Method, with pkg relative
// to internal/.
var exportAllowlist = map[string]string{
	"cpu.(*RunState).Result":            "the RunFrom composition gate, a ROADMAP invariant, reads a split replay's accumulated result through it",
	"faultfs.(*FaultFS).Ops":            "fault-injection seam: make torture counts a clean run's filesystem ops to place a fault at each one",
	"faultfs.(*Plan).CrashBeforeRename": "fault-injection seam: power loss inside the atomic-replace window WriteFileAtomic must survive",
	"faultfs.(*Plan).FailKind":          "fault-injection seam: fails every op of one kind, such as checkpoint fsyncs, for the crash-consistency tests",
	"faultfs.(*Plan).ShortWriteNth":     "fault-injection seam: the torn-record schedule that make torture and journal recovery inject",
	"sim.InstallChaos":                  "fault-injection seam: fails cells mid-sweep to exercise the runner's panic containment, -keep-going and manifest paths",
	"sim.SetAuditTamper":                "fault-injection seam: miscounts a report to show the audit catches it end to end",
}

// TestNoTestOnlyExports makes the rule "a test-only production API is
// a bug" a check. It type-checks every non-test file of this module and
// of any module nested in it (bench/), which covers cmd/ and examples/,
// and fails on each exported function, method, interface method, type,
// var or const declared under internal/ that no non-test file
// references. A method also counts as referenced when its type
// implements an interface method that is referenced, or one declared
// by an imported standard-library package, whose code calls String,
// Error, Write and the like itself. Exported struct fields are not
// checked. The only other way out is exportAllowlist.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; not -short")
	}
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	// A type error fails the test, but the scan still runs over what
	// did check, so it can name the dead code that caused the error.
	for i, err := range prog.errs {
		if i == 5 {
			t.Errorf("type-checking the tree: %d more errors", len(prog.errs)-i)
			break
		}
		t.Errorf("type-checking the tree: %v", err)
	}
	declared, unused := prog.scanExports()

	var findings []string
	for name, pos := range unused {
		if _, ok := exportAllowlist[name]; !ok {
			findings = append(findings, fmt.Sprintf("%s: %s", pos, name))
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("exported but referenced only by tests, or not at all: %s", f)
	}
	if len(findings) > 0 {
		t.Log("delete it (porting its tests onto the production API it wraps), unexport it, or add it to exportAllowlist with the need it serves")
	}

	for name, why := range exportAllowlist {
		switch {
		case strings.TrimSpace(why) == "" || strings.Contains(why, "\n"):
			t.Errorf("exportAllowlist[%q]: the reason must be one non-empty line", name)
		case !declared[name]:
			t.Errorf("exportAllowlist[%q]: no such exported identifier under internal/; drop the entry", name)
		case unused[name] == "":
			t.Errorf("exportAllowlist[%q]: now has a non-test reference; drop the entry", name)
		}
	}
}

// program is the type-checked non-test code of a module tree.
type program struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory, for the tree's own packages
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	errs  []error
	recvs map[*ast.Ident]bool // receiver type names, which do not count as references
}

// loadProgram type-checks every package directory under root,
// collecting type errors in errs. A directory holding its own go.mod
// starts a nested module.
func loadProgram(root string) (*program, error) {
	p := &program{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		recvs: map[*ast.Ident]bool{},
	}
	p.std = importer.ForCompiler(p.fset, "gc", nil)
	modules := map[string]string{} // module root directory -> module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if mp, err := modulePath(filepath.Join(dir, "go.mod")); err == nil {
			modules[dir] = mp
		} else if !os.IsNotExist(err) {
			return err
		}
		if files, err := sourceFiles(dir); err != nil || len(files) == 0 {
			return err
		}
		for mod := dir; ; mod = filepath.Dir(mod) {
			if mp, ok := modules[mod]; ok {
				rel, err := filepath.Rel(mod, dir)
				if err != nil {
					return err
				}
				p.dirs[strings.TrimSuffix(mp+"/"+filepath.ToSlash(rel), "/.")] = dir
				return nil
			}
			if mod == filepath.Dir(mod) {
				return fmt.Errorf("%s: no enclosing go.mod", dir)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(p.dirs))
	for path := range p.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mp, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mp), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// sourceFiles lists the non-test Go files of dir that build on this
// platform.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err == nil && ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// Import type-checks one of the tree's packages from its non-test
// files, and hands every other path to the standard importer.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := p.dirs[path]
	if !ok {
		return p.std.Import(path)
	}
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						p.recvs[id] = true
					}
					return true
				})
			}
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p, Error: func(err error) { p.errs = append(p.errs, err) }}
	pkg, _ := conf.Check(path, p.fset, files, p.info)
	p.pkgs[path] = pkg
	return pkg, nil
}

// scanExports returns every exported identifier declared under
// internal/, by report name, and the position of each one that no
// non-test file references.
func (p *program) scanExports() (declared map[string]bool, unused map[string]string) {
	used := map[types.Object]bool{}
	for id, obj := range p.info.Uses {
		if !p.recvs[id] {
			used[origin(obj)] = true
		}
	}
	// An interface method counts when it is referenced or declared
	// outside the tree.
	ifaceUsed := func(m *types.Func) bool {
		if m.Pkg() == nil {
			return true // error.Error
		}
		if _, own := p.dirs[m.Pkg().Path()]; !own {
			return true
		}
		return used[m]
	}
	ifaces := p.interfaces()

	declared, unused = map[string]bool{}, map[string]string{}
	for _, obj := range p.internalExports() {
		name := reportName(obj)
		declared[name] = true
		if !used[obj] && !implementsUsed(obj, ifaces, ifaceUsed) {
			unused[name] = p.fset.Position(obj.Pos()).String()
		}
	}
	return declared, unused
}

// internalExports lists the exported package-level objects, methods
// and interface methods declared in the tree's internal/ packages.
func (p *program) internalExports() []types.Object {
	var out []types.Object
	for path, pkg := range p.pkgs {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out = append(out, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// interfaces returns the interfaces a method may be called through:
// every interface an expression or type expression of the tree has,
// every named interface of the standard-library packages it imports,
// error, and the unnamed ones package errors asserts.
func (p *program) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || it.NumMethods() == 0 || seen[it] {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[it] = true
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	for _, t := range errorsInterfaces() {
		add(t)
	}
	for _, tv := range p.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			if _, own := p.dirs[imp.Path()]; own {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// implementsUsed reports whether obj is a concrete method whose
// receiver type implements an interface method of the same name that
// counts as used.
func implementsUsed(obj types.Object, ifaces []*types.Interface, ifaceUsed func(*types.Func) bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	base := recv.Type()
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if m.Name() == fn.Name() && ifaceUsed(m) &&
				(types.Implements(base, it) || types.Implements(types.NewPointer(base), it)) {
				return true
			}
		}
	}
	return false
}

// errorsInterfaces returns the interfaces errors.Is, errors.As and
// errors.Unwrap assert without naming them.
func errorsInterfaces() []types.Type {
	const src = `package errors
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reportName spells an identifier as pkg.Name, pkg.Type.Method or
// pkg.(*Type).Method, with pkg relative to internal/.
func reportName(obj types.Object) string {
	pkg := obj.Pkg().Path()
	if i := strings.Index(pkg, "/internal/"); i >= 0 {
		pkg = pkg[i+len("/internal/"):]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return pkg + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + obj.Name()
	}
	rt, star := recv.Type(), false
	if ptr, ok := rt.(*types.Pointer); ok {
		rt, star = ptr.Elem(), true
	}
	tname := rt.String()
	if n, ok := rt.(*types.Named); ok {
		tname = n.Obj().Name()
	}
	if star {
		return pkg + ".(*" + tname + ")." + obj.Name()
	}
	return pkg + "." + tname + "." + obj.Name()
}

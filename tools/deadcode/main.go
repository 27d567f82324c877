// Command deadcode reports the functions and methods of a Go module that no
// binary of the module can reach, so that code only tests call is deleted
// rather than kept (ROADMAP aim 2: the same behaviour from the least code).
//
// Usage:
//
//	go build -C tools/deadcode -o /tmp/deadcode .
//	/tmp/deadcode [module-root]
//
// It type-checks every non-test file of the module (the standard library
// through go/importer's "source" importer; nested modules, testdata and
// hidden directories are skipped) and follows references from these roots:
//
//   - every main and init function;
//   - every package-level variable initialiser;
//   - every exported function of the root package, and every exported
//     method of its exported types (the library's public API);
//   - every method some interface declares, since a call through an
//     interface reaches it without naming it: by name for the module's own
//     interfaces, by name and signature for those of other packages.
//
// A function or method the walk does not reach is a finding unless the
// allow file, <module-root>/tools/deadcode/allow.txt, lists it with one
// `importpath.Recv.Name reason` line; blank lines and #-comments are
// skipped. A line that names nothing unreachable is stale, and also a
// finding, so the list cannot rot. Exit status is 1 on any finding and 2 on
// a load error.
package main

import (
	"bufio"
	"errors"
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
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	allowPath := filepath.Join(root, "tools", "deadcode", "allow.txt")
	dead, err := Unreachable(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	allow, err := readAllow(allowPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	findings := Check(dead, allow)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Printf("%d finding(s): delete the code, or list it in %s with a reason\n", len(findings), allowPath)
		os.Exit(1)
	}
}

// Func is one unreachable function or method.
type Func struct {
	// Name is importpath.Name or importpath.Recv.Name.
	Name string
	// Pos is the file:line of its declaration.
	Pos string
}

// Check returns one line per unreachable function the allow list does not
// name, and one per allow line that names no unreachable function.
func Check(dead []Func, allow map[string]string) []string {
	var out []string
	found := make(map[string]bool, len(dead))
	for _, f := range dead {
		found[f.Name] = true
		if _, ok := allow[f.Name]; !ok {
			out = append(out, fmt.Sprintf("%s: %s is unreachable from every binary", f.Pos, f.Name))
		}
	}
	var stale []string
	for name := range allow {
		if !found[name] {
			stale = append(stale, fmt.Sprintf("allow list: %s is not unreachable (stale line)", name))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// readAllow parses an allow file into name → reason.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// Unreachable loads the module rooted at root and returns its unreachable
// functions and methods, package by package in load order, each package's in
// declaration order.
func Unreachable(root string) ([]Func, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// Pure-Go file sets only: the source importer would otherwise run cgo
	// over packages such as net.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*pkg),
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, rel := range dirs {
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}
	return l.unreachable(), nil
}

// modulePath reads the module line of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", root)
}

// packageDirs lists the module's directories that hold Go files, relative to
// root, skipping nested modules, testdata and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if rel != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if files, _ := sourceFiles(p); len(files) > 0 {
			dirs = append(dirs, rel)
		}
		return nil
	})
	return dirs, err
}

// sourceFiles lists dir's non-test Go files that build on this platform.
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
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages itself, so that their objects
// carry use information, and hands every other import to the standard
// library's source importer.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*pkg
	order   []*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.inModule(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	p := &pkg{}
	l.pkgs[path] = p
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	files, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %s: no Go files in %s", path, dir)
	}
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	l.order = append(l.order, p)
	return p, nil
}

// unreachable walks references from the roots and returns every declared
// function or method the walk misses.
func (l *loader) unreachable() []Func {
	// A body to walk, with the type information of its package.
	type body struct {
		node ast.Node
		info *types.Info
	}
	ifaces := l.interfaceMethods()
	decls := make(map[*types.Func]body)
	var all []*types.Func
	var work []body
	reached := make(map[*types.Func]bool)
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if b, ok := decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			work = append(work, b)
		}
	}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = body{d, p.info}
					all = append(all, fn)
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, body{d, p.info})
					}
				}
			}
		}
	}
	for _, fn := range all {
		if l.isRoot(fn, ifaces) {
			reach(fn)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := b.info.Uses[id].(*types.Func); ok {
					reach(fn)
				}
			}
			return true
		})
	}
	var dead []Func
	for _, fn := range all {
		if !reached[fn] {
			pos := l.fset.Position(fn.Pos())
			rel, err := filepath.Rel(l.root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			dead = append(dead, Func{Name: qualifiedName(fn), Pos: fmt.Sprintf("%s:%d", rel, pos.Line)})
		}
	}
	return dead
}

// isRoot reports whether a binary may reach fn without the walk seeing a
// reference to it.
func (l *loader) isRoot(fn *types.Func, ifaces ifaceMethods) bool {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		if fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main" {
			return true
		}
		return fn.Pkg().Path() == l.modPath && fn.Exported()
	}
	if fn.Pkg().Path() == l.modPath && fn.Exported() && recvNamed(recv).Obj().Exported() {
		return true
	}
	if ifaces.own[fn.Name()] {
		return true
	}
	for _, s := range ifaces.other[fn.Name()] {
		if types.Identical(s, sig) {
			return true
		}
	}
	return false
}

// ifaceMethods holds the methods interfaces declare, by name. A method named
// like one of the module's own interface methods counts by its name alone,
// as the module's contracts are few and deliberate. For the interfaces of
// other packages (error, fmt.Stringer, http.Handler, sort.Interface …) only
// the exact signature counts: names like Set or Kind are common there.
type ifaceMethods struct {
	own   map[string]bool
	other map[string][]*types.Signature
}

// interfaceMethods collects the methods of the interfaces the module's code
// declares, names or spells out, of every interface at package level in the
// packages it imports, and of error.
func (l *loader) interfaceMethods() ifaceMethods {
	out := ifaceMethods{own: make(map[string]bool), other: make(map[string][]*types.Signature)}
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type, inModule bool) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		if n, ok := t.(*types.Named); ok {
			inModule = n.Obj().Pkg() != nil && l.inModule(n.Obj().Pkg().Path())
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if inModule {
				out.own[m.Name()] = true
			} else {
				out.other[m.Name()] = append(out.other[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	add(types.Universe.Lookup("error").Type(), false)
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type(), false)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.order {
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type, true) // an interface literal the module spells out
			}
		}
		walk(p.types)
	}
	return out
}

func (l *loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// qualifiedName spells fn as importpath.Name or importpath.Recv.Name.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name += recvNamed(recv).Obj().Name() + "."
	}
	return name + fn.Name()
}

func recvNamed(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

package fattree_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const module = "fattree"

// testSeams are the exported names under internal/ that only tests use
// and that stay exported anyway: each is shared by the tests of more
// than one package. A key is "importpath.Name" for a package-level
// name, "importpath.Type.Name" for a method or field, or an import path
// for a whole package.
var testSeams = map[string]string{
	"fattree/internal/topo.MustBuild":           "the panic-on-error builder the tests of every package construct fabrics with",
	"fattree/internal/invariant.RandPGFT":       "seeded random PGFTs for the route, hsd, engine, fabric and fmgr property tests",
	"fattree/internal/cli/clitest":              "the golden harness every cmd/* test runs its argument lists through",
	"fattree/internal/topo.Topology.LeafOf":     "the host-to-leaf step the topo, route, hsd, invariant and fabric tests build their cases from",
	"fattree/internal/topo.Topology.HostsUnder": "the sub-tree host list the topo and route tests find leaf mates with",
}

// TestNoTestOnlyExports pins the rule that production code has a
// production caller. Under internal/, every exported package-level
// name must be used by some non-test file (a command, bench/, another
// package or its own package); every exported method of an exported
// type must be called by one, or implement an interface that one calls
// through; and every exported field of an exported struct type must be
// both written and read by one. The test seams above are the only
// exceptions. A name only tests use belongs in a _test.go file of its
// own package; one nothing uses is deleted.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		test := strings.HasSuffix(p, "_test.go")
		var f *ast.File
		if !test {
			if f, err = parser.ParseFile(fset, p, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
		}
		files = append(files, srcFile{pkg: path.Join(module, filepath.ToSlash(filepath.Dir(p))), test: test, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uses, err := productionUses(fset, files, importer.Default())
	if err != nil {
		t.Fatal(err)
	}

	var findings []string
	for key, u := range uses {
		if _, ok := testSeams[key]; ok {
			continue
		}
		if _, ok := testSeams[key[:strings.Index(key, ".")]]; ok {
			continue
		}
		if f := u.finding(); f != "" {
			findings = append(findings, key+": "+f+" ("+u.pos.String()+")")
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("exported, but %s", f)
	}
	for seam := range testSeams {
		if u, ok := uses[seam]; ok {
			if u.finding() == "" {
				t.Errorf("allow-list names %s, which production code now uses; drop it from testSeams", seam)
			}
			continue
		}
		if fi, err := os.Stat(strings.TrimPrefix(seam, module+"/")); err != nil || !fi.IsDir() {
			t.Errorf("allow-list names %s, which is not declared under internal/", seam)
		}
	}
}

// TestExportRules pins each rule of the classifier on a small in-memory
// module: dropping any one of them changes the findings.
func TestExportRules(t *testing.T) {
	sources := []struct {
		pkg, name, src string
	}{
		{"fattree/internal/a", "a.go", `package a

type Config struct {
	Size   int // written only by the positional literal in New
	Weight int
	Label  string ` + "`json:\"label\"`" + ` // never read by code, but encoding/json reads it
}

func New() Config { return Config{1, 2, "x"} }

func (c Config) Total() int { return c.Size + c.Weight }

type Knob struct{ Unset int } // read by Get, written by nothing

func (k Knob) Get() int { return k.Unset }

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side } // called only through Shape

func (s Square) Perimeter() int { return 4 * s.Side } // called only by a_test.go

func Measure(s Shape) int { return s.Area() }

type hidden struct{}

func (hidden) Spare() {} // a method of an unexported type is not checked
`},
		{"fattree/internal/a", "a_test.go", `package a

import "testing"

func TestPerimeter(t *testing.T) { _ = Square{Side: 1}.Perimeter() }
`},
		{"fattree/cmd/b", "main.go", `package main

import "fattree/internal/a"

func main() { println(a.New().Total(), a.Measure(a.Square{Side: 2}), a.Knob{}.Get()) }
`},
	}
	fset := token.NewFileSet()
	var files []srcFile
	for _, s := range sources {
		f, err := parser.ParseFile(fset, s.name, s.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{pkg: s.pkg, test: strings.HasSuffix(s.name, "_test.go"), ast: f})
	}
	uses, err := productionUses(fset, files, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for key, u := range uses {
		if f := u.finding(); f != "" {
			got[key] = f
		}
	}
	want := map[string]string{
		"fattree/internal/a.Knob.Unset":       "no production code writes it",
		"fattree/internal/a.Square.Perimeter": "no production code calls it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
	if _, ok := uses["fattree/internal/a.hidden.Spare"]; ok {
		t.Error("a method of an unexported type was classified")
	}
}

// srcFile is one Go file of the module; ast is nil for a test file,
// which the classifier never reads.
type srcFile struct {
	pkg  string // import path of the directory
	test bool
	ast  *ast.File
}

// exportUse is what production code does with one exported name.
type exportUse struct {
	pos    token.Position
	kind   string // "func", "type", "var", "const", "method" or "field"
	used   bool   // a package-level name is used or a method is called
	read   bool   // fields only
	writes bool   // fields only
}

func (u *exportUse) finding() string {
	switch {
	case u.kind == "method" && !u.used:
		return "no production code calls it"
	case u.kind == "field" && !u.writes:
		return "no production code writes it"
	case u.kind == "field" && !u.read:
		return "no production code reads it"
	case u.kind != "method" && u.kind != "field" && !u.used:
		return "no production code uses it"
	}
	return ""
}

// productionUses type-checks every non-test package of the module once,
// in import order, and returns every exported name declared under
// internal/ with what the production files do with it. Packages outside
// the module come from std.
func productionUses(fset *token.FileSet, files []srcFile, std types.Importer) (map[string]*exportUse, error) {
	byPkg := map[string][]*ast.File{}
	for _, f := range files {
		if !f.test {
			byPkg[f.pkg] = append(byPkg[f.pkg], f.ast)
		}
	}
	m := &moduleImporter{fset: fset, files: byPkg, std: std, done: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
	paths := make([]string, 0, len(byPkg))
	for p := range byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}

	// Declarations: exported package-level names, then the methods and
	// fields of the exported named types among them (so the methods of
	// an unexported type are never checked).
	uses := map[string]*exportUse{}
	objKey := map[types.Object]string{}
	declare := func(key, kind string, o types.Object) {
		uses[key] = &exportUse{pos: fset.Position(o.Pos()), kind: kind}
		objKey[o] = key
	}
	type method struct {
		recv *types.Named
		fn   *types.Func
	}
	var methods []method
	for _, p := range paths {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := m.done[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			kind := "const"
			switch obj.(type) {
			case *types.Func:
				kind = "func"
			case *types.TypeName:
				kind = "type"
			case *types.Var:
				kind = "var"
			}
			declare(p+"."+name, kind, obj)
			named, ok := obj.Type().(*types.Named)
			if kind != "type" || !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					declare(p+"."+name+"."+fn.Name(), "method", fn)
					methods = append(methods, method{named, fn})
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() || f.Embedded() {
						continue
					}
					declare(p+"."+name+"."+f.Name(), "field", f)
					if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
						u := uses[objKey[f]]
						u.read, u.writes = true, true // encoding/json encodes and decodes it
					}
				}
			}
		}
	}

	// Writes: struct literal keys and positions, assignments, ++/--, and
	// taking a field's address. Every other use of a field reads it.
	writeIdent := map[*ast.Ident]bool{}
	readToo := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr, alsoRead bool) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writeIdent[s.Sel] = true
			readToo[s.Sel] = alsoRead
		}
	}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := m.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						writeIdent[kv.Key.(*ast.Ident)] = true
					} else if key, ok := objKey[st.Field(i).Origin()]; ok {
						uses[key].writes = true
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e, n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
				}
			case *ast.IncDecStmt:
				lhs(n.X, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lhs(n.X, true)
				}
			}
			return true
		})
	}

	// Uses, and the interface methods production code calls through.
	// Every interface a standard package declares counts as called:
	// the standard library calls it.
	dispatched := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			dispatched[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range paths {
		for _, imp := range m.done[p].Imports() {
			if _, ok := byPkg[imp.Path()]; ok {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	for id, obj := range m.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				addIface(recv.Type())
			}
		case *types.Var:
			obj = o.Origin()
		}
		key, ok := objKey[obj]
		if !ok {
			continue
		}
		u := uses[key]
		switch {
		case u.kind != "field":
			u.used = true
		case writeIdent[id]:
			u.writes = true
			u.read = u.read || readToo[id]
		default:
			u.read = true
		}
	}
	for _, mt := range methods {
		u := uses[objKey[mt.fn]]
		for it := range dispatched {
			if u.used {
				break
			}
			u.used = hasMethod(it, mt.fn.Name()) &&
				(types.Implements(mt.recv, it) || types.Implements(types.NewPointer(mt.recv), it))
		}
	}
	return uses, nil
}

// moduleImporter type-checks the module's packages from source on
// first import, recording into one shared Info, and hands every other
// import to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	done  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.done[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return m.std.Import(p)
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, files, m.info)
	m.done[p] = pkg
	return pkg, err
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

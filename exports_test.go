package fattree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testSeams are the exported identifiers under internal/ that only tests
// read and that stay exported anyway: each is shared by the tests of
// more than one package. A whole package is named by its import path.
var testSeams = map[string]string{
	"fattree/internal/route.ForceWideCells":       "route, hsd, engine and fmgr tests force 32-bit arena cells through it",
	"fattree/internal/topo.MustBuild":             "the panic-on-error builder the tests of every package construct fabrics with",
	"fattree/internal/invariant.RandPGFT":         "seeded random PGFTs for the route, hsd, engine, fabric and fmgr property tests",
	"fattree/internal/invariant.PermutationPairs": "the permutation check the workload generator tests share with invariant's own",
	"fattree/internal/cli/clitest":                "the golden harness every cmd/* test runs its argument lists through",
}

// TestNoTestOnlyExports pins the rule that production code has a
// production caller: every exported package-level func, type, var and
// const under internal/ must be read by some non-test file (a command,
// bench/, another package, or its own package) unless it is one of the
// test seams above. An identifier only tests read belongs in a _test.go
// file of its own package; one nothing reads is deleted.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "fattree"
	type file struct {
		pkg  string // import path of the directory
		test bool
		ast  *ast.File
	}
	fset := token.NewFileSet()
	var files []file
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files = append(files, file{pkg: pkg, test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported package-level declarations of the non-test files under
	// internal/, keyed "importpath.Name".
	declared := map[string]token.Position{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, module+"/internal/") {
			continue
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				declared[f.pkg+"."+id.Name] = fset.Position(id.Pos())
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n)
						}
					}
				}
			}
		}
	}

	// Every identifier a non-test file reads: qualified names through its
	// imports, and bare names of its own package. Declaring names, field
	// and method names, and the selector half of x.Name are not reads.
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unread []string
	for key, pos := range declared {
		if used[key] {
			continue
		}
		if _, ok := testSeams[key]; ok {
			continue
		}
		if _, ok := testSeams[key[:strings.LastIndex(key, ".")]]; ok {
			continue
		}
		unread = append(unread, key+" ("+pos.String()+")")
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("exported but no production code reads it: %s", u)
	}
	for seam := range testSeams {
		if _, ok := declared[seam]; ok {
			if used[seam] {
				t.Errorf("allow-list names %s, which production code now reads; drop it from testSeams", seam)
			}
			continue
		}
		if fi, err := os.Stat(strings.TrimPrefix(seam, module+"/")); err != nil || !fi.IsDir() {
			t.Errorf("allow-list names %s, which is not declared under internal/", seam)
		}
	}
}

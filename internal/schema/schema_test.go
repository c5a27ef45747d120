package schema

import (
	"go/build"
	"strings"
	"testing"
)

// TestImportsOnlyStdlib keeps the package at the bottom of the import
// graph: every producer and the renderer depend on it, so an import of
// anything in this module would be a cycle waiting to happen.
func TestImportsOnlyStdlib(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if first := strings.SplitN(imp, "/", 2)[0]; first == "fattree" || strings.Contains(first, ".") {
			t.Errorf("internal/schema imports %q; only the standard library is allowed", imp)
		}
	}
}

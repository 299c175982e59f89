package meta

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportsStandardLibraryOnly is the check behind the package's claim that
// the code deciding the trace cannot see a value: no non-test file imports a
// package of this module (the crypto, the block plane, the storage), and no
// struct field of the package has a byte-slice type, the type a block or a
// value would take.
func TestImportsStandardLibraryOnly(t *testing.T) {
	mod, err := os.ReadFile(filepath.Join("..", "..", "..", "go.mod"))
	must(t, err)
	module, _, _ := strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
	if module == "" || strings.ContainsAny(module, " \t") {
		t.Fatalf("go.mod does not start with a module line: %q", mod)
	}
	files, err := filepath.Glob("*.go")
	must(t, err)
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		must(t, err)
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			must(t, err)
			if path == module || strings.HasPrefix(path, module+"/") {
				t.Errorf("%s imports %s, a package of this module", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if holdsBytes(field.Type) {
					t.Errorf("%s: a struct field of type %s can hold block or value bytes", name, typeString(field.Type))
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test file parsed")
	}
}

// TestNoFileAssignsRandReader: no Go file of the repository, test files
// included, assigns crypto/rand.Reader. The generator is the process's: a
// test that swaps it changes what every goroutine draws, seeds and nonces
// included, and cannot run beside another test. A test that needs
// deterministic seeds gives its machine a plane whose Seed answers them.
func TestNoFileAssignsRandReader(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		name := "" // what the file calls crypto/rand
		for _, imp := range f.Imports {
			if imp.Path.Value == `"crypto/rand"` {
				name = "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			for i := 0; ok && name != "" && i < len(as.Lhs); i++ {
				if sel, isSel := as.Lhs[i].(*ast.SelectorExpr); isSel && sel.Sel.Name == "Reader" {
					if x, isIdent := sel.X.(*ast.Ident); isIdent && x.Name == name {
						t.Errorf("%s assigns crypto/rand.Reader", fset.Position(as.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	must(t, err)
	if checked == 0 {
		t.Fatal("no Go file parsed")
	}
}

// holdsBytes reports whether a field type is a slice of bytes, at any depth
// of slices, arrays, pointers and maps.
func holdsBytes(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ArrayType:
		if id, ok := e.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "uint8") {
			return e.Len == nil
		}
		return holdsBytes(e.Elt)
	case *ast.StarExpr:
		return holdsBytes(e.X)
	case *ast.MapType:
		return holdsBytes(e.Key) || holdsBytes(e.Value)
	}
	return false
}

// typeString renders a field type for a failure message.
func typeString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ArrayType:
		return "[]" + typeString(e.Elt)
	case *ast.StarExpr:
		return "*" + typeString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

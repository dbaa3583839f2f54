package crew_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMessageLiteralsNameMechanism keeps the paper's message accounting
// (Tables 4-6 count messages per Mechanism) true by construction: outside
// the transport package a message is built in a few places (actor.Send and
// the distributed front-end constructors), and every transport.Message
// composite literal in non-test code must set its Mechanism key. The other
// half is the sealed transport.Link: its delivery method is unexported, so
// nothing outside transport can put a message below the counting front
// half. bench/ is its own module, third_party/ is vendored code and
// testdata/ is not compiled.
func TestMessageLiteralsNameMechanism(t *testing.T) {
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch p := filepath.ToSlash(path); {
			case p == "bench", p == "third_party", p == "internal/transport", d.Name() == "testdata",
				strings.HasPrefix(d.Name(), ".") && p != ".":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := transportImportName(f)
		if name == "" {
			return nil
		}
		isMessage := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Message" {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			var msgs []*ast.CompositeLit
			switch t := lit.Type.(type) {
			case *ast.ArrayType: // []transport.Message{{...}}: the elements' type is elided
				if isMessage(t.Elt) {
					msgs = elided(lit.Elts)
				}
			case *ast.MapType:
				if isMessage(t.Value) {
					msgs = elided(lit.Elts)
				}
			default:
				if isMessage(lit.Type) {
					msgs = []*ast.CompositeLit{lit}
				}
			}
			for _, m := range msgs {
				seen++
				if !hasKey(m, "Mechanism") {
					t.Errorf("%s: %s.Message literal without a Mechanism key: the message would be counted as Normal", fset.Position(m.Pos()), name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// actor.Send and distributed's three front-end constructors.
	if seen < 4 {
		t.Errorf("found %d transport.Message literals, want at least 4: is the walk reading the tree?", seen)
	}
}

// transportImportName is the name f refers to crew/internal/transport by,
// or "" when f does not import it.
func transportImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "crew/internal/transport" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "transport"
		}
	}
	return ""
}

// elided returns the composite literals among a slice or map literal's
// elements (values, for a map) whose type is left to the container.
func elided(elts []ast.Expr) []*ast.CompositeLit {
	var out []*ast.CompositeLit
	for _, e := range elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil {
			out = append(out, lit)
		}
	}
	return out
}

func hasKey(lit *ast.CompositeLit, key string) bool {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == key {
				return true
			}
		}
	}
	return false
}

package crew_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"crew/internal/lint"
)

// crewDirectives are the //crew: comments crewlint reads, with the analyzer
// that reads each. //crew:allow is checked apart: it must name an analyzer
// of lint.Analyzers.
var crewDirectives = map[string]string{
	"blocks":        "locks (through the summary facts)",
	"lockrank":      "locks",
	"deterministic": "detclock",
}

// TestCrewDirectivesAreRead keeps crewlint's annotations honest: every
// //crew: directive in non-test Go is one that an analyzer of lint.Analyzers
// reads. A directive of a deleted check (an allocation mark, say) would
// otherwise stay in the tree as a comment that looks enforced and is not.
// Allocation-free hot paths are held by the AllocsPerRun budget tests.
// bench/ is its own module, third_party/ is vendored code and testdata/ is
// not compiled.
func TestCrewDirectivesAreRead(t *testing.T) {
	analyzers := map[string]bool{}
	for _, a := range lint.Analyzers {
		analyzers[a.Name] = true
	}
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch p := filepath.ToSlash(path); {
			case p == "bench", p == "third_party", d.Name() == "testdata",
				strings.HasPrefix(d.Name(), ".") && p != ".":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//crew:")
				if !ok {
					continue
				}
				seen++
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					t.Errorf("%s: empty //crew: directive", fset.Position(c.Pos()))
				case fields[0] == "allow":
					if len(fields) < 2 || !analyzers[fields[1]] {
						t.Errorf("%s: %s names no analyzer crewlint runs", fset.Position(c.Pos()), c.Text)
					}
				case crewDirectives[fields[0]] == "":
					t.Errorf("%s: %s is read by no analyzer crewlint runs", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The seven lock ranks of actor and transport, at least.
	if seen < 7 {
		t.Errorf("found %d //crew: directives, want at least 7: is the walk reading the tree?", seen)
	}
}

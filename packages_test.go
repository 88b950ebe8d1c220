package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// noCallerExempt lists internal packages allowed to have only test
// importers: fakeworker is the fabric's in-process test harness.
var noCallerExempt = map[string]bool{
	"repro/internal/fabric/fakeworker": true,
}

// TestEveryInternalPackageHasACaller fails when a package under internal/
// is imported by no non-test Go file outside it — in cmd/, examples/,
// bench/ or another internal package — so dead packages cannot creep back.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	internal := map[string]bool{} // internal package import paths
	imported := map[string]bool{} // paths some other package imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		self := "repro/" + filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(self, "repro/internal/") {
			internal[self] = true
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p != self {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages; run from the module root")
	}
	var orphans []string
	for p := range internal {
		if !imported[p] && !noCallerExempt[p] {
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s has no importer outside its own tests: delete it or call it", p)
	}
}

// TestScalefoldHoldsNoProcessState fails when a non-test file of
// internal/scalefold declares a package-level variable beyond the immutable
// declarations and the census memo (a pure derivation of the fixed model
// config): results are resolved through a caller's Resolver and memoized
// per run, never in process-wide state.
func TestScalefoldHoldsNoProcessState(t *testing.T) {
	allowed := map[string]bool{"Ablations": true, "Figure3DAPs": true, "ladderRungs": true, "censusCache": true}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("internal", "scalefold", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var vars []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					vars = append(vars, name.Name)
					if !allowed[name.Name] {
						t.Errorf("%s: package-level var %s holds process state", fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
	}
	if len(vars) == 0 {
		t.Fatal("found no package-level vars; run from the module root")
	}
}

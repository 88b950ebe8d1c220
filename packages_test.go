package repro

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
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

// noCallerFuncs lists exported functions and methods of internal packages
// allowed to have no caller outside their own package's tests, keyed by
// package path under internal/, receiver type and name, each with its
// reason.
var noCallerFuncs = map[string]string{
	"scalefold.BaselineDAPSpeedups":     "reproduces §3.1's baseline DAP-2/DAP-4 speed-up claim, pinned by TestBaselineDAPSaturates and TestFiguresPinned",
	"store.WithShards":                  "the single-lock baseline of BenchmarkStoreMillion's mixed-parallel comparison",
	"fabric.Worker.SetHeartbeatsPaused": "the stalled-worker control of TestFabricStalledWorkerExpiresAndLateCompletesRejected",
}

// exportedFunc is an exported function, or an exported method of an
// exported type, declared in a non-test file under internal/.
type exportedFunc struct {
	key  string // package path under internal/, receiver type and name
	name string
	dir  string
	pos  token.Position
}

// TestEveryExportedFuncHasACaller fails when an exported function or
// method under internal/ is named nowhere but its declaration and its own
// directory's tests: in no non-test file of the module or bench/, and in
// no test of another directory. Names are matched as identifier tokens, so
// comments and strings do not count, and a common name passes on any
// other use of it. Functions called only inside their own package pass.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedFunc
	declAt := map[token.Position]bool{} // declaration name positions
	var files []string
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files = append(files, path)
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := strings.TrimPrefix(dir, "internal/") + "."
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key += recv + "."
			}
			pos := fset.Position(fd.Name.Pos())
			declAt[pos] = true
			decls = append(decls, exportedFunc{key: key + fd.Name.Name, name: fd.Name.Name, dir: dir, pos: pos})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported internal funcs; run from the module root")
	}

	// callers[name] records each directory whose tests name it; "" stands
	// for any non-test file, which counts for every declaration.
	callers := map[string]map[string]bool{}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		where := ""
		if strings.HasSuffix(path, "_test.go") {
			where = filepath.ToSlash(filepath.Dir(path))
		}
		file := fset.AddFile(path, -1, len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, 0)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.IDENT || !ast.IsExported(lit) || declAt[fset.Position(pos)] {
				continue
			}
			if callers[lit] == nil {
				callers[lit] = map[string]bool{}
			}
			callers[lit][where] = true
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := false
		for where := range callers[d.name] {
			called = called || where != d.dir
		}
		_, allowed := noCallerFuncs[d.key]
		switch {
		case !called && !allowed:
			t.Errorf("%s: %s has no caller outside its own tests: delete it or call it", d.pos, d.key)
		case called && allowed:
			t.Errorf("%s: %s has a caller now: drop it from noCallerFuncs", d.pos, d.key)
		}
	}
	for key := range noCallerFuncs {
		if !declared[key] {
			t.Errorf("noCallerFuncs lists %s, which no longer exists", key)
		}
	}
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestScalefoldHoldsNoProcessState fails when a non-test file of
// internal/scalefold or internal/analytic declares a package-level variable
// beyond the immutable declarations allowed below: results are resolved
// through a caller's Resolver and memoized per run — the estimator's prep
// streams included — never in process-wide state, and the census memo
// lives in package workload.
func TestScalefoldHoldsNoProcessState(t *testing.T) {
	allowed := map[string]map[string]string{
		"scalefold": {
			"Ablations":   "an alias of scenario.Ablations, the canonical ablation list",
			"Figure3DAPs": "the DAP degrees Figure 3 plots",
			"ladderRungs": "the Figure 8 optimization ladder's rungs",
		},
		"analytic": {
			"DefaultPolicy": "the escalation thresholds auto mode applies; read, never written",
		},
	}
	fset := token.NewFileSet()
	for dir, allow := range allowed {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
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
						if _, ok := allow[name.Name]; !ok {
							t.Errorf("%s: package-level var %s holds process state", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
		if len(vars) == 0 {
			t.Fatalf("found no package-level vars in internal/%s; run from the module root", dir)
		}
	}
}

package ftsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestTooling folds `go vet ./...` and a gofmt check into the tier-1 gate
// (`go test ./...`), so vet regressions and formatting drift fail CI
// without a separate pipeline step. Skipped with -short.
func TestTooling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs external tooling")
	}
	t.Run("vet", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "./...")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go vet ./...: %v\n%s", err, b)
		}
	})
	t.Run("gofmt", func(t *testing.T) {
		gofmt, err := exec.LookPath("gofmt")
		if err != nil {
			gofmt = filepath.Join(runtime.GOROOT(), "bin", "gofmt")
		}
		b, err := exec.Command(gofmt, "-l", ".").CombinedOutput()
		if err != nil {
			t.Fatalf("gofmt -l .: %v\n%s", err, b)
		}
		if out := strings.TrimSpace(string(b)); out != "" {
			t.Errorf("files need gofmt:\n%s", out)
		}
	})
}

// TestNoDuplicatePaths keeps each internal API declared in one place and
// the engine on one scenario sampler. It fails when an internal package
// declares a type or const alias to another internal package (only the
// Time aliases of core, model and schedule are allowed), or when
// internal/sim imports math/rand.
func TestNoDuplicatePaths(t *testing.T) {
	allowed := map[string]bool{"core.Time": true, "model.Time": true, "schedule.Time": true}
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		internal := map[string]bool{}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name == "sim" && p == "math/rand" {
				t.Errorf("%s imports math/rand; sample scenarios with sim.SampleRNGInto", file)
			}
			if strings.HasPrefix(p, "ftsched/internal/") {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				internal[name] = true
			}
		}
		fromInternal := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && internal[x.Name]
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Assign.IsValid() && fromInternal(s.Type) && !allowed[f.Name.Name+"."+s.Name.Name] {
						t.Errorf("%s: type %s re-exports another internal package; import it directly",
							fset.Position(s.Pos()), s.Name.Name)
					}
				case *ast.ValueSpec:
					for i, v := range s.Values {
						if gd.Tok == token.CONST && fromInternal(v) {
							t.Errorf("%s: const %s re-exports another internal package; import it directly",
								fset.Position(s.Pos()), s.Names[i].Name)
						}
					}
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d internal source files checked — glob broken?", checked)
	}
}

package gputopdown

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryOptionHasACaller: an exported func returning Option is called from
// non-test code outside bench/, or sits in compat.go, whose header names
// bench/ as its only user. An option nothing sets is deleted, not kept.
func TestEveryOptionHasACaller(t *testing.T) {
	// Every non-test .go file outside bench/, as one haystack.
	var code strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "bench" {
			return filepath.SkipDir
		}
		if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			var src []byte
			src, err = os.ReadFile(path)
			code.Write(src)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob("*.go")
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "Option" {
				continue
			}
			if file == "compat.go" && strings.Contains(f.Comments[0].Text(), "bench/") {
				continue
			}
			if strings.Count(code.String(), fn.Name.Name+"(") < 2 { // one is the declaration
				t.Errorf("%s: option %s has no caller outside tests and bench/", file, fn.Name.Name)
			}
		}
	}
}

// TestJobSettingsTranslatedOnce: the options a JobRequest's settings map to
// are applied by JobOptions alone among the front doors — the root package,
// cmd/ and internal/ — so the CLIs and the daemon cannot drift apart.
// bench/ keeps its own copy until it is next edited.
func TestJobSettingsTranslatedOnce(t *testing.T) {
	settings := map[string]bool{"WithLevel": true, "WithHWPM": true, "WithRawEquations": true,
		"WithSampling": true, "WithReplayCache": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "bench" {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && path == "serve.go" && fn.Name.Name == "JobOptions" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				if settings[name] {
					t.Errorf("%s calls %s; a job setting becomes an option only in JobOptions", path, name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryUnexportedFuncIsReferenced is the offline stand-in for
// staticcheck's U1000 check: an unexported func or method anywhere in the
// module outside bench/ must be named by some other identifier of its
// package, test files included. Methods are matched by name alone, so one
// that shares its name with a used identifier goes unnoticed; nothing that is
// used fails.
func TestEveryUnexportedFuncIsReferenced(t *testing.T) {
	type pkg struct{ dir, name string }
	type decl struct {
		pkg  pkg
		name *ast.Ident
	}
	var decls []decl
	refs := map[pkg]map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		p := pkg{filepath.Dir(path), f.Name.Name}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && !fn.Name.IsExported() && fn.Name.Name != "init" && fn.Name.Name != "main" {
				decls = append(decls, decl{p, fn.Name})
				own[fn.Name] = true
			}
		}
		if refs[p] == nil {
			refs[p] = map[string]int{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[p][id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		if refs[d.pkg][d.name.Name] == 0 {
			t.Errorf("%s: %s is declared but nothing in package %s refers to it", fset.Position(d.name.Pos()), d.name.Name, d.pkg.name)
		}
	}
}

// TestEverySpecFieldIsConsumed: every field of gpu.Spec and isa.OpInfo is
// read by non-test code outside bench/, so every number a device model states
// changes something the model does. Reads by the type's own methods do not
// count: a field that only its own Validate or a derived getter looks at is
// consulted by nothing else. For Spec no read inside internal/gpu counts,
// since its parameter table reaches every field. A read is a selector naming
// the field, not assigned to. Fields are matched by name alone, so one sharing
// its name with a read field of another type goes unnoticed; nothing that is
// read fails.
func TestEverySpecFieldIsConsumed(t *testing.T) {
	for _, c := range []struct{ file, typ, skip string }{
		{"internal/gpu/gpu.go", "Spec", "internal/gpu"},
		{"internal/isa/isa.go", "OpInfo", ""},
	} {
		fields := structFields(t, c.file, c.typ)
		if len(fields) == 0 {
			t.Fatalf("%s declares no struct %s", c.file, c.typ)
		}
		read := map[string]bool{}
		err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || path == c.skip):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			assigned := map[ast.Expr]bool{}
			for _, decl := range f.Decls {
				if path == c.file && isMethodOf(decl, c.typ) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok == token.ASSIGN {
							for _, lhs := range n.Lhs {
								assigned[lhs] = true
							}
						}
					case *ast.SelectorExpr:
						if !assigned[n] {
							read[n.Sel.Name] = true
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range fields {
			if !read[name] {
				t.Errorf("%s.%s: no non-test code but %[1]s's own methods reads it", c.typ, name)
			}
		}
	}
}

// structFields lists the field names of the struct type typ declared in file.
func structFields(t *testing.T, file, typ string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == typ {
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						names = append(names, id.Name)
					}
				}
			}
			return false
		}
		return true
	})
	return names
}

// isMethodOf reports whether decl is a method with receiver typ or *typ.
func isMethodOf(decl ast.Decl, typ string) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil {
		return false
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	id, ok := recv.(*ast.Ident)
	return ok && id.Name == typ
}

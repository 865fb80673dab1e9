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

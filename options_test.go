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

package gputopdown

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDesignBytes bounds DESIGN.md: it describes the system as it is, and the
// history of how it got there lives in docs/history/.
const maxDesignBytes = 30 << 10

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	callArgs   = regexp.MustCompile(`\([^()]*\)$`)
	goName     = regexp.MustCompile(`^(?:\(\*([a-z][a-z0-9]*)\.([A-Za-z_]\w*)\)\.([A-Za-z_]\w*)|([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?)$`)
	testName   = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz|Example)\w*$`)
)

// TestDocsNameWhatExists holds DESIGN.md and README.md to the tree. Every
// inline code token that is a repository path (internal/…, cmd/…, docs/…,
// *.go) must exist, and every pkg.Name, pkg.Type.Member or
// (*pkg.Type).Method whose pkg is a package of this module must resolve to a
// declaration, method or field of its non-test files; a trailing call's
// arguments are dropped first. A TestX, BenchmarkX, FuzzX or ExampleX, bare
// or as pkg.TestX, must be a function of some test file, bench/'s included,
// so the invariants the docs pin to tests name tests that run. Tokens with spaces (commands), the
// benchmark's metric names (BENCHMARK.json) and anything else are ignored.
// DESIGN.md stays within maxDesignBytes.
func TestDocsNameWhatExists(t *testing.T) {
	decls := moduleDecls(t)
	metrics := benchmarkMetrics(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if doc == "DESIGN.md" && len(src) > maxDesignBytes {
			t.Errorf("DESIGN.md is %d bytes, want at most %d", len(src), maxDesignBytes)
		}
		for _, tok := range codeTokens(string(src)) {
			if metrics[tok] {
				continue
			}
			if msg := decls.check(tok); msg != "" {
				t.Errorf("%s: `%s` %s", doc, tok, msg)
			}
		}
	}
}

// codeTokens returns the inline code spans of a Markdown document outside
// its fenced blocks.
func codeTokens(doc string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	var toks []string
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		toks = append(toks, m[1])
	}
	return toks
}

func benchmarkMetrics(t *testing.T) map[string]bool {
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &b); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

// typeRef names a type: package name and type name.
type typeRef struct{ pkg, name string }

// declIndex is what the module's non-test files declare, by package name
// (packages main aside): top-level names and each type's own methods and
// fields; and the functions of every test file.
type declIndex struct {
	tests   map[string]bool
	top     map[string]map[string]bool
	members map[typeRef]map[string]bool
}

func moduleDecls(t *testing.T) *declIndex {
	ix := &declIndex{
		tests:   map[string]bool{},
		top:     map[string]map[string]bool{},
		members: map[typeRef]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					ix.tests[fn.Name.Name] = true
				}
			}
		case f.Name.Name != "main" && !strings.HasPrefix(path, "bench"+string(filepath.Separator)):
			ix.addFile(f.Name.Name, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *declIndex) addFile(pkg string, f *ast.File) {
	if ix.top[pkg] == nil {
		ix.top[pkg] = map[string]bool{}
	}
	member := func(typ, name string) {
		ref := typeRef{pkg, typ}
		if ix.members[ref] == nil {
			ix.members[ref] = map[string]bool{}
		}
		ix.members[ref][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.top[pkg][d.Name.Name] = true
			} else if name, ok := typeName(d.Recv.List[0].Type); ok {
				member(name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.top[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					name := s.Name.Name
					ix.top[pkg][name] = true
					var fields []*ast.Field
					switch st := s.Type.(type) {
					case *ast.StructType:
						fields = st.Fields.List
					case *ast.InterfaceType:
						fields = st.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(name, n.Name)
						}
						if embedded, ok := typeName(fld.Type); ok && len(fld.Names) == 0 {
							member(name, embedded)
						}
					}
				}
			}
		}
	}
}

// typeName returns the name of the type a receiver or embedded field names.
func typeName(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	}
	return "", false
}

// check returns why tok names nothing in the tree, or "" when it resolves or
// is not a name the test checks.
func (ix *declIndex) check(tok string) string {
	if strings.ContainsAny(tok, " \t\n") {
		return ""
	}
	if path, ok := repoPath(tok); ok {
		if strings.Contains(path, "/") {
			if _, err := os.Stat(path); err != nil {
				return "names a path that does not exist"
			}
			return ""
		}
		if !fileNamed(path) {
			return "names a file no directory holds"
		}
		return ""
	}
	if !strings.HasPrefix(tok, "(") {
		tok = callArgs.ReplaceAllString(tok, "")
	}
	if name, _, _ := strings.Cut(tok, "/"); testName.MatchString(name) {
		if !ix.tests[name] {
			return "names no test function"
		}
		return ""
	}
	m := goName.FindStringSubmatch(tok)
	if m == nil {
		return ""
	}
	if m[1] != "" { // (*pkg.Type).Method
		if ix.top[m[1]] == nil {
			return ""
		}
		if !ix.members[typeRef{m[1], m[2]}][m[3]] {
			return "names no method of a type of package " + m[1]
		}
		return ""
	}
	pkg, name, member := m[4], m[5], m[6]
	if ix.top[pkg] == nil {
		return ""
	}
	if member == "" && testName.MatchString(name) {
		return ix.check(name)
	}
	if !ix.top[pkg][name] {
		return "names no declaration of package " + pkg
	}
	if member != "" && !ix.members[typeRef{pkg, name}][member] {
		return "names no method or field of " + pkg + "." + name
	}
	return ""
}

// repoPath returns tok as a path relative to the repository root when it
// names one: under internal/, cmd/ or docs/, or a Go file.
func repoPath(tok string) (string, bool) {
	p := strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/")
	for _, dir := range []string{"internal/", "cmd/", "docs/"} {
		if strings.HasPrefix(p, dir) || p+"/" == dir {
			return p, true
		}
	}
	return p, strings.HasSuffix(p, ".go")
}

// fileNamed reports whether some directory of the repository holds a file
// of that base name.
func fileNamed(name string) bool {
	found := false
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && d.Name() == name:
			found = true
			return fs.SkipAll
		}
		return nil
	})
	return found
}

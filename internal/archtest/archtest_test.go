// Package archtest holds the rules that keep this codebase's shape:
// what stays deleted, what is written once, which imports a file may
// not take, that no protocol layer prints or drops a packet's journey,
// that no internal package lives for its tests alone, that CI's test
// selections name real tests, that every peer-facing decoder has a
// fuzz target, and that every function under internal/ is linked into
// some binary (this rule builds the binaries and reads go tool nm). The rules read the parsed source, not its text: a
// comment naming a deleted identifier passes, a declaration of it
// fails. Each rule row carries a planted violation the rule must flag,
// so no rule can pass by matching nothing.
//
//	go test ./internal/archtest
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// ciPath is the workflow whose go test -run selections a rule checks.
const ciPath = ".github/workflows/ci.yml"

// srcFile is one parsed Go file of the tree.
type srcFile struct {
	path string // slash path from the module root
	test bool
	ast  *ast.File
}

// dir returns the package directory the file belongs to.
func (f *srcFile) dir() string { return path.Dir(f.path) }

// tree is the module's Go source, parsed once, and CI's workflow text.
type tree struct {
	root   string
	module string
	fset   *token.FileSet
	files  []*srcFile
	ci     string
	nm     string // a planted go tool nm listing
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

// load parses every .go file under the module root, skipping hidden
// directories and testdata. Comments are not kept: no rule reads them.
func load(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = parseTree("../..") })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func parseTree(root string) (*tree, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	tr := &tree{root: root, module: strings.TrimSpace(strings.TrimPrefix(first, "module")), fset: token.NewFileSet()}
	ci, err := os.ReadFile(filepath.Join(root, ciPath))
	if err != nil {
		return nil, err
	}
	tr.ci = string(ci)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, &srcFile{path: filepath.ToSlash(rel), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	return tr, err
}

// plant is a violation a rule must flag: src replaces the file at path
// (or is added there). A Go snippet without a package clause gets one.
type plant struct{ path, src string }

// with returns a copy of the tree with p planted in it.
func (tr *tree) with(p plant) (*tree, error) {
	out := *tr
	switch p.path {
	case ciPath:
		out.ci = p.src
		return &out, nil
	case nmPath:
		out.nm = p.src
		return &out, nil
	}
	src := p.src
	if !strings.HasPrefix(strings.TrimSpace(src), "package ") {
		src = "package planted\n\n" + src
	}
	f, err := parser.ParseFile(tr.fset, p.path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	out.files = []*srcFile{{path: p.path, test: strings.HasSuffix(p.path, "_test.go"), ast: f}}
	for _, g := range tr.files {
		if g.path != p.path {
			out.files = append(out.files, g)
		}
	}
	return &out, nil
}

// pos renders a node's position as a slash path from the module root.
func (tr *tree) pos(f *srcFile, n ast.Node) string {
	return f.path + ":" + strconv.Itoa(tr.fset.Position(n.Pos()).Line)
}

// fileSet names the files a rule reads, by slash path from the module
// root: "dir" is the package in dir, "dir/..." every package beneath dir
// as well, "..." the whole tree, and a pattern naming a .go file is
// matched with path.Match. A pattern that starts with "!" takes what it
// matches out again. Test files are read only when tests is set.
type fileSet struct {
	patterns []string
	tests    bool
}

// src reads the non-test files the patterns name.
func src(patterns ...string) fileSet { return fileSet{patterns: patterns} }

// all reads the test files the patterns name as well.
func all(patterns ...string) fileSet { return fileSet{patterns: patterns, tests: true} }

func matchPath(pattern, p string) bool {
	switch {
	case pattern == "...":
		return true
	case strings.HasSuffix(pattern, "/..."):
		return strings.HasPrefix(p, strings.TrimSuffix(pattern, "..."))
	case strings.HasSuffix(pattern, ".go"):
		ok, _ := path.Match(pattern, p)
		return ok
	default:
		return path.Dir(p) == pattern
	}
}

func (s fileSet) of(tr *tree) []*srcFile {
	var out []*srcFile
	for _, f := range tr.files {
		if f.test && !s.tests {
			continue
		}
		in, excluded := false, false
		for _, pat := range s.patterns {
			if neg, ok := strings.CutPrefix(pat, "!"); ok {
				excluded = excluded || matchPath(neg, f.path)
			} else {
				in = in || matchPath(pat, f.path)
			}
		}
		if in && !excluded {
			out = append(out, f)
		}
	}
	return out
}

// rule is one row of the table in rules_test.go.
type rule struct {
	name  string // what the rule holds
	files fileSet
	check func(tr *tree, files []*srcFile) []string // the violations
	bad   plant
	more  []plant // further violations, each flagged on its own
}

// TestRules holds the tree to every rule, and every rule to its planted
// violation.
func TestRules(t *testing.T) {
	tr := load(t)
	seen := map[string]bool{}
	for _, r := range rules {
		if seen[r.name] {
			t.Fatalf("two rules named %q", r.name)
		}
		seen[r.name] = true
		t.Run(r.name, func(t *testing.T) {
			for _, pat := range r.files.patterns {
				if !strings.HasPrefix(pat, "!") && len(all(pat).of(tr)) == 0 {
					t.Errorf("%q names no file of the tree", pat)
				}
			}
			for _, v := range r.check(tr, r.files.of(tr)) {
				t.Error(v)
			}
			for _, p := range append([]plant{r.bad}, r.more...) {
				bad, err := tr.with(p)
				if err != nil {
					t.Fatalf("planted %s: %v", p.path, err)
				}
				if len(r.check(bad, r.files.of(bad))) == 0 {
					t.Errorf("the violation planted in %s is not flagged:\n%s", p.path, p.src)
				}
			}
		})
	}
}

// TestCommentsPassRules plants comment-only files that name what the
// rules forbid, and requires that the tree still passes every rule: the
// rules read declarations and uses, never text.
func TestCommentsPassRules(t *testing.T) {
	tr := load(t)
	for _, p := range []plant{
		{"internal/radio/zz_comment.go", "// candCache, recvBuf and Spend( were here.\n"},
		{"internal/store/zz_comment.go", "// type apLog struct{}; sched.Schedule(); \"runtime/debug\"\n"},
	} {
		bad, err := tr.with(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rules {
			for _, v := range r.check(bad, r.files.of(bad)) {
				t.Errorf("%s: a comment in %s is flagged: %s", r.name, p.path, v)
			}
		}
	}
}

// dotted renders an identifier or selector chain ("a.b.c"); a chain
// that starts at any other expression renders that start as "?", and
// any other expression as "".
func dotted(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if l := dotted(x.X); l != "" {
			return l + "." + x.Sel.Name
		}
		return "?." + x.Sel.Name
	case *ast.ParenExpr:
		return dotted(x.X)
	case *ast.StarExpr:
		return dotted(x.X)
	}
	return ""
}

// endsWith reports whether the chain s ends with the chain name, at a
// component boundary.
func endsWith(s, name string) bool {
	return s == name || strings.HasSuffix(s, "."+name)
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return dotted(e)
}

// funcName names a function "F" and a method "T.M".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvType(fd) + "." + fd.Name.Name
}

// testFuncs returns the names of the Test, Benchmark or Fuzz functions
// (per prefix) declared in each package's test files.
func testFuncs(tr *tree, prefixes ...string) map[string][]string {
	out := map[string][]string{}
	for _, f := range tr.files {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, p := range prefixes {
				if strings.HasPrefix(fd.Name.Name, p) {
					out[f.dir()] = append(out[f.dir()], fd.Name.Name)
				}
			}
		}
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out
}

package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The rule kinds. Each returns the check of one rule row.

// deleted flags a declaration whose name matches one of the patterns
// (path.Match syntax). A pattern "T.M" is held against methods, struct
// fields and interface methods of the type T; a bare pattern against
// every package-level name and every method, field and interface method.
func deleted(patterns ...string) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		var out []string
		for _, f := range files {
			declared(f.ast, func(name string, at ast.Node) {
				for _, pat := range patterns {
					target := name
					if !strings.Contains(pat, ".") {
						target = name[strings.LastIndex(name, ".")+1:]
					}
					if ok, _ := path.Match(pat, target); ok {
						out = append(out, fmt.Sprintf("%s: %s is declared; it stays deleted", tr.pos(f, at), name))
					}
				}
			})
		}
		return out
	}
}

// declared calls fn with every name f declares outside function bodies:
// package-level names bare, methods, struct fields and interface
// methods as "T.Name".
func declared(f *ast.File, fn func(name string, at ast.Node)) {
	members := func(typ string, fields *ast.FieldList) {
		for _, fld := range fields.List {
			for _, n := range fld.Names {
				fn(typ+"."+n.Name, n)
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn(funcName(d), d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s.Name.Name, s.Name)
					switch t := s.Type.(type) {
					case *ast.StructType:
						members(s.Name.Name, t.Fields)
					case *ast.InterfaceType:
						members(s.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						fn(n.Name, n)
					}
				}
			}
		}
	}
}

// noImport flags an import of one of the paths.
func noImport(paths ...string) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		var out []string
		for _, f := range files {
			for _, im := range f.ast.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				for _, banned := range paths {
					if p == banned {
						out = append(out, fmt.Sprintf("%s: imports %q", tr.pos(f, im), p))
					}
				}
			}
		}
		return out
	}
}

// matcher picks the AST nodes a count rule counts.
type matcher struct {
	desc  string
	match func(ast.Node) bool
}

// count flags a file set holding fewer than min or more than max nodes
// that one of the matchers picks.
func count(min, max int, ms ...matcher) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		var at []string
		var descs []string
		for _, m := range ms {
			descs = append(descs, m.desc)
		}
		for _, f := range files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				for _, m := range ms {
					if n != nil && m.match(n) {
						at = append(at, tr.pos(f, n))
					}
				}
				return true
			})
		}
		if len(at) < min || len(at) > max {
			return []string{fmt.Sprintf("%d of %s (want %d to %d) at %v", len(at), strings.Join(descs, " or "), min, max, at)}
		}
		return nil
	}
}

// none flags every node one of the matchers picks.
func none(ms ...matcher) func(*tree, []*srcFile) []string { return count(0, 0, ms...) }

// call picks calls of a function or method whose name ends with the
// chain name ("sched.Schedule" picks s.sched.Schedule(…)).
func call(name string) matcher {
	return matcher{name + "(…) call", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && endsWith(dotted(c.Fun), name)
	}}
}

// callWith picks calls of name whose first argument is the literal lit.
func callWith(name, lit string) matcher {
	return matcher{name + "(" + lit + ") call", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || !endsWith(dotted(c.Fun), name) || len(c.Args) == 0 {
			return false
		}
		l, ok := c.Args[0].(*ast.BasicLit)
		return ok && l.Value == lit
	}}
}

// use picks selector expressions whose chain ends with name.
func use(name string) matcher {
	return matcher{"use of " + name, func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && endsWith(dotted(s), name)
	}}
}

// literal picks composite literals of one of the named types.
func literal(types ...string) matcher {
	return matcher{strings.Join(types, "/") + "{…} literal", func(n ast.Node) bool {
		c, ok := n.(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, t := range types {
			if dotted(c.Type) == t {
				return true
			}
		}
		return false
	}}
}

// appendOf picks append(…dst, typ{…}, …) calls: an append to a slice
// whose name ends in dst of a typ literal.
func appendOf(dst, typ string) matcher {
	return matcher{"append(…" + dst + ", " + typ + "{…})", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || dotted(c.Fun) != "append" || len(c.Args) < 2 || !strings.HasSuffix(dotted(c.Args[0]), dst) {
			return false
		}
		for _, a := range c.Args[1:] {
			if l, ok := a.(*ast.CompositeLit); ok && dotted(l.Type) == typ {
				return true
			}
		}
		return false
	}}
}

// compare picks ==/!= comparisons of a chain ending in field with one
// ending in one of the values ("cfg.Mode == ModeAP").
func compare(field string, values ...string) matcher {
	return matcher{field + " ==/!= " + strings.Join(values, "|"), func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return false
		}
		x, y := dotted(b.X), dotted(b.Y)
		for _, v := range values {
			if endsWith(x, field) && endsWith(y, v) || endsWith(y, field) && endsWith(x, v) {
				return true
			}
		}
		return false
	}}
}

// method picks declarations of methods named name, on any type.
func method(name string) matcher {
	return matcher{"method " + name, func(n ast.Node) bool {
		d, ok := n.(*ast.FuncDecl)
		return ok && d.Recv != nil && d.Name.Name == name
	}}
}

var (
	goStmt = matcher{"go statement", func(n ast.Node) bool {
		_, ok := n.(*ast.GoStmt)
		return ok
	}}
	interfaceType = matcher{"interface type", func(n ast.Node) bool {
		_, ok := n.(*ast.InterfaceType)
		return ok
	}}
	// prints picks fmt.Print* and the print/println builtins; formatting
	// into a value or an explicit writer (Sprintf, Fprintf) is not
	// printing.
	prints = matcher{"fmt.Print*/print/println call", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch f := c.Fun.(type) {
		case *ast.SelectorExpr:
			pkg, ok := f.X.(*ast.Ident)
			return ok && pkg.Name == "fmt" && strings.HasPrefix(f.Sel.Name, "Print")
		case *ast.Ident:
			return f.Name == "print" || f.Name == "println"
		}
		return false
	}}
)

// noDir flags a directory that exists on disk or holds a planted file.
func noDir(dir string) func(*tree, []*srcFile) []string {
	return func(tr *tree, _ []*srcFile) []string {
		if _, err := os.Stat(filepath.Join(tr.root, dir)); err == nil {
			return []string{dir + " exists; it stays deleted"}
		}
		for _, f := range tr.files {
			if strings.HasPrefix(f.path, dir+"/") {
				return []string{f.path + " exists; " + dir + " stays deleted"}
			}
		}
		return nil
	}
}

// journeyKept flags an Emit of a data-plane event type whose journey
// argument (the last) is the literal 0, in a function with a packet
// buffer in scope: such a call has almost certainly dropped the
// packet's correlation ID and punches a hole in its journey.
func journeyKept(tr *tree, files []*srcFile) []string {
	data := map[string]bool{}
	for _, t := range dataPlaneTypes {
		data[t] = true
	}
	var out []string
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok || len(c.Args) < 2 || !endsWith(dotted(c.Fun), "Emit") {
					return true
				}
				typ := dotted(c.Args[1])
				typ = typ[strings.LastIndex(typ, ".")+1:]
				last, ok := c.Args[len(c.Args)-1].(*ast.BasicLit)
				if data[typ] && ok && last.Kind == token.INT && last.Value == "0" && holdsBuffer(fn) {
					out = append(out, fmt.Sprintf("%s: Emit(%s, …) drops the journey ID (literal 0) with a packet buffer in scope", tr.pos(f, c), typ))
				}
				return true
			})
		}
	}
	return out
}

// holdsBuffer reports whether fn gives any evidence of holding a packet
// buffer: a *netbuf.Buffer (or in-package *Buffer) parameter or
// variable, a .buf / .Payload selector (MAC queue items, radio frames,
// 6LoWPAN datagrams), or a buffer taken from a pool or constructor.
func holdsBuffer(fn *ast.FuncDecl) bool {
	isBuffer := func(e ast.Expr) bool {
		s, ok := e.(*ast.StarExpr)
		return ok && endsWith(dotted(s.X), "Buffer")
	}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			if isBuffer(p.Type) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			found = found || x.Sel.Name == "buf" || x.Sel.Name == "Payload"
		case *ast.CallExpr:
			if s, ok := x.Fun.(*ast.SelectorExpr); ok {
				found = found || s.Sel.Name == "Get" || s.Sel.Name == "Clone" || s.Sel.Name == "FromBytes"
			}
		case *ast.ValueSpec:
			found = found || isBuffer(x.Type)
		}
		return !found
	})
	return found
}

// journeyTypesListed flags a trace event type that the data-plane and
// control-plane lists do not name exactly once between them, and a
// listed name that is no event type. The event types are the constants
// of trace.go's Type block before its numTypes sentinel.
func journeyTypesListed(tr *tree, files []*srcFile) []string {
	var declared []string
	for _, f := range files {
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.CONST || len(g.Specs) == 0 {
				continue
			}
			if first := g.Specs[0].(*ast.ValueSpec); dotted(first.Type) != "Type" {
				continue
			}
			for _, s := range g.Specs {
				name := s.(*ast.ValueSpec).Names[0].Name
				if name == "numTypes" {
					break
				}
				declared = append(declared, name)
			}
		}
	}
	listed := map[string]int{}
	for _, t := range append(append([]string(nil), dataPlaneTypes...), controlPlaneTypes...) {
		listed[t]++
	}
	var out []string
	for _, t := range declared {
		if listed[t] != 1 {
			out = append(out, fmt.Sprintf("trace.%s is named %d times by the data-plane and control-plane lists, want once", t, listed[t]))
		}
		delete(listed, t)
	}
	for t := range listed {
		out = append(out, fmt.Sprintf("%s is listed but is no trace event type", t))
	}
	if len(declared) == 0 {
		out = append(out, "no trace.Type constant block found")
	}
	sort.Strings(out)
	return out
}

// testOnly flags an internal package that no program code imports, only
// tests and examples/, unless it is excepted by directory; and an
// exception that program code does import.
func testOnly(except ...string) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		pkgs := map[string]bool{} // internal package dirs with program code
		imported := map[string]bool{}
		for _, f := range files {
			if f.test {
				continue
			}
			if strings.HasPrefix(f.path, "internal/") {
				pkgs[f.dir()] = true
			}
			if strings.HasPrefix(f.path, "examples/") {
				continue
			}
			for _, im := range f.ast.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if dir, ok := strings.CutPrefix(p, tr.module+"/"); ok && dir != f.dir() {
					imported[dir] = true
				}
			}
		}
		excepted := map[string]bool{}
		for _, e := range except {
			excepted[e] = true
		}
		var out []string
		for dir := range pkgs {
			if !imported[dir] && !excepted[dir] {
				out = append(out, dir+" is imported only by tests and examples/")
			}
		}
		for _, e := range except {
			if imported[e] {
				out = append(out, e+" is imported by program code now; drop its exception")
			}
		}
		sort.Strings(out)
		return out
	}
}

// goTestLine finds a go test command and its arguments in a line.
var goTestLine = regexp.MustCompile(`\bgo test\b(.*)`)

// ciRuns flags a -run alternative in CI's workflow that names no Test or
// Benchmark function in a package the same command tests. Fuzz runs are
// exempt; their -run only silences the regular tests.
func ciRuns(tr *tree, _ []*srcFile) []string {
	tests := testFuncs(tr, "Test", "Benchmark")
	var out []string
	n := 0
	for i, line := range strings.Split(tr.ci, "\n") {
		m := goTestLine.FindStringSubmatch(line)
		if m == nil || strings.Contains(m[1], "-fuzz") {
			continue
		}
		args := strings.Fields(strings.NewReplacer("'", " ", `"`, " ", "=", " ").Replace(m[1]))
		var pkgs []string
		pattern := ""
		for j, a := range args {
			switch {
			case strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, strings.TrimPrefix(a, "./"))
			case a == "-run" && j+1 < len(args):
				pattern = args[j+1]
			}
		}
		if pattern == "" {
			continue
		}
		n++
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				out = append(out, fmt.Sprintf("%s:%d: -run alternative %q: %v", ciPath, i+1, alt, err))
				continue
			}
			for _, pkg := range pkgs {
				if !anyMatch(re, tests, pkg) {
					out = append(out, fmt.Sprintf("%s:%d: -run alternative %q names no Test or Benchmark function in %s", ciPath, i+1, alt, pkg))
				}
			}
		}
	}
	if n == 0 {
		out = append(out, ciPath+" has no go test -run selection; the rule would hold nothing")
	}
	return out
}

// anyMatch reports whether re matches a test function of pkg ("dir" or
// "dir/..." for every package beneath dir).
func anyMatch(re *regexp.Regexp, tests map[string][]string, pkg string) bool {
	for dir, names := range tests {
		if !matchPath(pkg, dir+"/_.go") { // a file's path stands for its package
			continue
		}
		for _, name := range names {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// decoder is a function that reads bytes a peer sent: "F" or "T.M" in
// package dir.
type decoder struct{ dir, name string }

// fuzzed flags a decoder that its package does not declare, or that no
// Fuzz function in its package's tests refers to.
func fuzzed(decoders ...decoder) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		decl := map[decoder]bool{}
		reached := map[decoder]bool{}
		for _, f := range files {
			for _, d := range f.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if !f.test {
					decl[decoder{f.dir(), funcName(fd)}] = true
					continue
				}
				if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") || fd.Body == nil {
					continue
				}
				for _, dec := range decoders {
					if dec.dir == f.dir() && refers(fd.Body, dec.name) {
						reached[dec] = true
					}
				}
			}
		}
		var out []string
		for _, dec := range decoders {
			switch {
			case !decl[dec]:
				out = append(out, fmt.Sprintf("%s declares no %s; update the decoder list", dec.dir, dec.name))
			case !reached[dec]:
				out = append(out, fmt.Sprintf("no Fuzz target in %s calls %s, which reads what a peer sends", dec.dir, dec.name))
			}
		}
		return out
	}
}

// refers reports whether body names the function or method name ("F" or
// "T.M", of which the method name alone is matched).
func refers(body *ast.BlockStmt, name string) bool {
	want := name[strings.LastIndex(name, ".")+1:]
	method := strings.Contains(name, ".")
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			found = found || (method && x.Sel.Name == want)
		case *ast.Ident:
			found = found || (!method && x.Name == want)
		}
		return !found
	})
	return found
}

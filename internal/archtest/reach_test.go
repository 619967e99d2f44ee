package archtest

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// nmPath stands for go tool nm's listing in a plant: its text is read as
// symbols some binary links, on top of what the built binaries link.
const nmPath = "go tool nm"

// funcRef is a function "F" or method "T.M" of the package in dir.
type funcRef struct{ dir, name string }

// allowed is a function no binary links that stays all the same, and why.
type allowed struct{ dir, name, why string }

var (
	binOnce   sync.Once
	binLinked map[funcRef]bool
	binErr    error
)

// linked returns the module's functions that some main of the tree
// links, plus those a planted listing names. The binaries are built once
// per test binary, with inlining off for the module's own packages so
// that a function called only where it was inlined still shows.
func (tr *tree) linked() (map[funcRef]bool, error) {
	binOnce.Do(func() { binLinked, binErr = buildAndList(tr) })
	if binErr != nil || tr.nm == "" {
		return binLinked, binErr
	}
	out := linkedFuncs(tr.module, tr.nm)
	for r := range binLinked {
		out[r] = true
	}
	return out, nil
}

// buildAndList builds every package main of the tree into a temporary
// directory and lists the module functions each binary links.
func buildAndList(tr *tree) (map[funcRef]bool, error) {
	var mains []string
	seen := map[string]bool{}
	for _, f := range tr.files {
		if d := "./" + f.dir(); !f.test && f.ast.Name.Name == "main" && !seen[d] {
			seen[d] = true
			mains = append(mains, d)
		}
	}
	dir, err := os.MkdirTemp("", "archtest-bin")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=" + tr.module + "/...=-l", "-o", dir + string(filepath.Separator)}, mains...)
	build := exec.Command("go", args...)
	build.Dir = tr.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(bins) != len(mains) {
		return nil, fmt.Errorf("built %d binaries from %d mains", len(bins), len(mains))
	}
	var listing strings.Builder
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		listing.Write(out)
	}
	return linkedFuncs(tr.module, listing.String()), nil
}

// nmLine is one line of go tool nm: an address (blank for an undefined
// symbol), the type letter, and the name, which holds spaces when a
// generic shape is a struct.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)

// closure names what the compiler nests inside a function: "F.func1",
// "F.gowrap2", "F.deferwrap1", or the "F.1" of a nested closure.
var closure = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// linkedFuncs returns the functions and methods of module's packages
// that a go tool nm listing names as code. A method appears as "T.M"
// whether the listing holds it or only its (*T).M wrapper; type
// arguments are dropped; package initialisers and closures are skipped.
func linkedFuncs(module, listing string) map[funcRef]bool {
	out := map[funcRef]bool{}
	for _, line := range strings.Split(listing, "\n") {
		if r, ok := parseSym(module, line); ok {
			out[r] = true
		}
	}
	return out
}

// parseSym reads one listing line as a function of module's packages.
func parseSym(module, line string) (funcRef, bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil || (m[1] != "T" && m[1] != "t") {
		return funcRef{}, false
	}
	rest, ok := strings.CutPrefix(stripBrackets(m[2]), module+"/")
	if !ok {
		return funcRef{}, false
	}
	slash := strings.LastIndex(rest, "/") + 1
	dot := strings.Index(rest[slash:], ".")
	if dot < 0 {
		return funcRef{}, false
	}
	dir, sym := rest[:slash+dot], strings.TrimSuffix(rest[slash+dot+1:], "-fm")
	if ptr, ok := strings.CutPrefix(sym, "(*"); ok {
		sym = strings.Replace(ptr, ").", ".", 1)
	}
	parts := strings.Split(sym, ".")
	if parts[0] == "init" || len(parts) > 2 || (len(parts) == 2 && closure.MatchString(parts[1])) {
		return funcRef{}, false
	}
	return funcRef{dir, sym}, true
}

// stripBrackets drops every balanced [...] of s, nested ones included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// reachedByBinaries flags a function or method declared in program code
// under internal/ that no binary links, unless allow names it; and an
// allow row whose function some binary links or the tree no longer
// declares, so the list cannot outlive its reasons.
func reachedByBinaries(allow ...allowed) func(*tree, []*srcFile) []string {
	return func(tr *tree, files []*srcFile) []string {
		linked, err := tr.linked()
		if err != nil {
			return []string{err.Error()}
		}
		allowedRefs := map[funcRef]bool{}
		for _, a := range allow {
			allowedRefs[funcRef{a.dir, a.name}] = true
		}
		decl := map[funcRef]bool{}
		var out []string
		for _, f := range files {
			if f.test {
				continue
			}
			for _, d := range f.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				r := funcRef{f.dir(), funcName(fd)}
				decl[r] = true
				if !linked[r] && !allowedRefs[r] {
					out = append(out, fmt.Sprintf("%s: %s is linked into no binary; delete it, move it into a _test.go file, or allow it with a reason", tr.pos(f, fd), r.name))
				}
			}
		}
		for _, a := range allow {
			r := funcRef{a.dir, a.name}
			switch {
			case !decl[r]:
				out = append(out, fmt.Sprintf("%s declares no %s; drop its allow row", a.dir, a.name))
			case linked[r]:
				out = append(out, fmt.Sprintf("%s %s is linked by a binary now; drop its allow row", a.dir, a.name))
			}
		}
		return out
	}
}

// TestParseNmSymbols reads lines copied from go tool nm listings of this
// module's binaries.
func TestParseNmSymbols(t *testing.T) {
	for _, c := range []struct {
		line string
		want funcRef // zero: not a function of the module
	}{
		// A generic shape with spaces, slashes, dots and nested brackets.
		{"  60c2e0 T iiotds/internal/trial.Sweep[go.shape.struct { iiotds/internal/exp.name string; iiotds/internal/exp.dev *iiotds/internal/registry.Device; iiotds/internal/exp.emu iiotds/internal/adapter.Emulator; iiotds/internal/exp.caps []string; iiotds/internal/exp.wcap string },go.shape.struct { iiotds/internal/exp.devices int; iiotds/internal/exp.frames int; iiotds/internal/exp.obs int; iiotds/internal/exp.cmds int; iiotds/internal/exp.errs int }]",
			funcRef{"internal/trial", "Sweep"}},
		// A method of a generic type.
		{"  677360 T iiotds/internal/adapter.(*emulator[go.shape.struct { Register uint16; Scale float64; Unit string; Writable bool }]).Apply",
			funcRef{"internal/adapter", "emulator.Apply"}},
		// The (*T).M wrapper stands in for the value method T.M.
		{"  686ce0 T iiotds/internal/coap.(*Code).String", funcRef{"internal/coap", "Code.String"}},
		{"  67f1c0 T iiotds/internal/coap.Code.String", funcRef{"internal/coap", "Code.String"}},
		// An instantiated generic function.
		{"  677e60 T iiotds/internal/adapter.newFamily[go.shape.struct { Register uint16; Scale float64; Unit string; Writable bool }]",
			funcRef{"internal/adapter", "newFamily"}},
		{"  685940 T iiotds/internal/coap.dedupHash[go.shape.[]uint8]", funcRef{"internal/coap", "dedupHash"}},
		// Closures, initialisers, data and other modules are not functions
		// of the module.
		{"  678280 T iiotds/internal/clock.(*System).Schedule.func1", funcRef{}},
		{"  676860 T iiotds/internal/adapter.(*family[go.shape.struct { Register uint16; Scale float64; Unit string; Writable bool }]).Decode.func1", funcRef{}},
		{"  4b3f20 T iiotds/internal/coap.init", funcRef{}},
		{"  4b3f40 T iiotds/internal/coap.init.0", funcRef{}},
		{"  7a1c00 D iiotds/internal/coap.ErrTruncated", funcRef{}},
		{"  4a1b20 T main.main", funcRef{}},
		{"           U iiotds/internal/coap.Unmarshal", funcRef{}},
	} {
		got, ok := parseSym("iiotds", c.line)
		if ok != (c.want != funcRef{}) || got != c.want {
			t.Errorf("%s\n read as %+v, %v; want %+v", c.line, got, ok, c.want)
		}
	}
}

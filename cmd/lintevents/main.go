// Command lintevents enforces the observability discipline of the
// protocol layers: emulated-stack packages must report what happened
// through the flight recorder (internal/trace) and the labeled metrics
// registry (internal/metrics), never by printing. A fmt.Print*/println
// call in a protocol layer is invisible to the deterministic trace,
// unfilterable, and corrupts the byte-identical output contract of the
// experiment runner — so CI fails on it.
//
// It also guards the journey-correlation contract: an Emit of a
// packet-tied (data-plane) event type that passes a literal 0 journey
// ID from a function with a packet buffer in scope has almost certainly
// dropped the correlation ID — the regression that silently punches
// holes in reconstructed journeys. Control-plane types (beacons, DIOs,
// store events, faults) legitimately carry journey 0 and are exempt.
//
//	lintevents            # lint the default protocol-layer packages
//	lintevents ./foo ...  # lint the named directories instead
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// protocolLayers are the packages whose code runs inside the emulated
// stack. Test files are exempt (tests may print diagnostics).
var protocolLayers = []string{
	"internal/netbuf",
	"internal/radio",
	"internal/mac",
	"internal/link",
	"internal/lowpan",
	"internal/rpl",
	"internal/coap",
	"internal/agg",
	"internal/trace",
	"internal/fault",
	"internal/core",
	"internal/scenario",
	"internal/gossip",
	"internal/store",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = protocolLayers
	}
	bad := 0
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lintevents: %v\n", err)
			os.Exit(2)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			bad += lintFile(filepath.Join(dir, name))
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintevents: %d violation(s) in protocol layers\n", bad)
		os.Exit(1)
	}
}

// journeyDataTypes are the trace event types tied to a specific packet:
// an Emit of one of these must thread the packet's journey ID through,
// never a literal 0. The control-plane types (wakeups, beacons, DIOs,
// DAOs, RNFD, store, fault) are journey-less by design and absent here.
var journeyDataTypes = map[string]bool{
	"RadioTx": true, "RadioDeliver": true, "RadioLoss": true, "RadioCollision": true,
	"MACTx": true, "MACBackoff": true, "MACRetry": true, "MACTxFail": true, "MACStrobe": true,
	"LinkAck": true, "LinkDrop": true,
	"RPLNoRoute": true, "RPLForward": true, "RPLDeliver": true,
	"CoAPRequest": true, "CoAPResponse": true, "CoAPRetransmit": true, "CoAPTimeout": true,
}

// hasBufferInScope reports whether fn gives any evidence of holding a
// packet buffer: a *netbuf.Buffer (or in-package *Buffer) parameter, a
// .buf / .Payload selector access (MAC queue items, radio frames,
// 6LoWPAN datagrams), or a buffer obtained from a pool/constructor.
func hasBufferInScope(fn *ast.FuncDecl) bool {
	isBufferType := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch t := star.X.(type) {
		case *ast.SelectorExpr:
			return t.Sel.Name == "Buffer"
		case *ast.Ident:
			return t.Name == "Buffer"
		}
		return false
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if isBufferType(field.Type) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "buf" || x.Sel.Name == "Payload" {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Get", "Clone", "FromBytes":
					found = true
				}
			}
		case *ast.ValueSpec:
			if isBufferType(x.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lintJourneyDrops flags Emit calls of data-plane event types whose
// journey argument is the literal 0 inside a function that has a packet
// buffer in scope.
func lintJourneyDrops(fset *token.FileSet, f *ast.File) int {
	bad := 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		checked := false
		hasBuf := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" || len(call.Args) < 2 {
				return true
			}
			// Type argument: trace.MACTx (qualified) or MACTx (in-package).
			var typeName string
			switch t := call.Args[1].(type) {
			case *ast.SelectorExpr:
				typeName = t.Sel.Name
			case *ast.Ident:
				typeName = t.Name
			}
			if !journeyDataTypes[typeName] {
				return true
			}
			last, ok := call.Args[len(call.Args)-1].(*ast.BasicLit)
			if !ok || last.Kind != token.INT || last.Value != "0" {
				return true
			}
			if !checked {
				checked, hasBuf = true, hasBufferInScope(fn)
			}
			if hasBuf {
				fmt.Printf("%s: Emit(%s, ...) drops the journey ID (literal 0) with a packet buffer in scope\n",
					fset.Position(call.Pos()), typeName)
				bad++
			}
			return true
		})
	}
	return bad
}

// lintFile reports every fmt.Print*/print/println call in one source
// file and returns how many it found.
func lintFile(path string) int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lintevents: %v\n", err)
		os.Exit(2)
	}
	bad := lintJourneyDrops(fset, f)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			// fmt.Print, fmt.Printf, fmt.Println (not Sprintf/Fprintf:
			// formatting into values or explicit writers is fine).
			if pkg, ok := fn.X.(*ast.Ident); ok && pkg.Name == "fmt" &&
				strings.HasPrefix(fn.Sel.Name, "Print") {
				name = "fmt." + fn.Sel.Name
			}
		case *ast.Ident:
			// The predeclared print/println builtins.
			if fn.Name == "print" || fn.Name == "println" {
				name = fn.Name
			}
		}
		if name != "" {
			fmt.Printf("%s: %s\n", fset.Position(call.Pos()), name)
			bad++
		}
		return true
	})
	return bad
}

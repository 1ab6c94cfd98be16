// Package detrand enforces the determinism contract every report in
// this repository carries: analyses may not read the wall clock, may
// not draw randomness from anywhere but the seeded internal/rng
// streams, and may not let map iteration order leak into output.
//
// Three rules:
//
//  1. importing math/rand or math/rand/v2 is reserved to the packages
//     in allowedRandImports (the seeded stream layer);
//  2. time.Now / time.Since are reserved to package main (CLI timing)
//     and the allowedWallClock entries (serving metrics measure real
//     latency, not analysis results);
//  3. ranging over a map while appending to a slice or emitting output
//     (fmt/io writes, json encoding) is flagged unless the appended
//     slice is sorted later in the same function — the
//     collect-keys-then-sort idiom.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"rainshine/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock reads, unseeded randomness, and map-order-dependent output in analysis code",
	Run:  run,
}

// allowedRandImports is the explicit allowlist of packages that may
// import math/rand: only the seeded stream layer.
var allowedRandImports = map[string]bool{
	"rainshine/internal/rng": true,
	"rng":                    true, // analysistest fixture twin
}

// allowedWallClock lists the package-qualified functions allowed to
// call time.Now/time.Since: the serving-metrics paths that measure real
// request latency and daemon uptime (never analysis output).
var allowedWallClock = map[string]bool{
	"rainshine/internal/server.NewMetrics":       true, // uptime epoch
	"rainshine/internal/server.Metrics.Snapshot": true, // /metricz uptime
	// Server.instrument and Server.handleHealthz used to sit here; both
	// now read the injected Server.now clock (see clockinject rule A).
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkRandImports(pass, file)
		checkWallClock(pass, file)
		checkMapOrder(pass, file)
	}
	return nil
}

func checkRandImports(pass *analysis.Pass, file *ast.File) {
	if allowedRandImports[pass.Pkg.Path()] {
		return
	}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s outside internal/rng: draw from a seeded rng.Source stream instead", path)
		}
	}
}

func checkWallClock(pass *analysis.Pass, file *ast.File) {
	if pass.Pkg.Name() == "main" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if name := fn.Name(); name != "Now" && name != "Since" {
			return true
		}
		if allowedWallClock[qualifiedFunc(pass, file, call.Pos())] {
			return true
		}
		pass.Reportf(call.Pos(), "time.%s outside the wall-clock allowlist: analysis results must be a pure function of the input seed", fn.Name())
		return true
	})
}

// qualifiedFunc names the enclosing declaration as pkgpath.[Recv.]Name
// for allowlist lookup; closures attribute to the named function that
// lexically contains them (declarations do not nest in Go).
func qualifiedFunc(pass *analysis.Pass, file *ast.File, pos token.Pos) string {
	var decl *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos < fd.End() {
			decl = fd
			break
		}
	}
	if decl == nil {
		return ""
	}
	name := decl.Name.Name
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		if t := baseTypeName(decl.Recv.List[0].Type); t != "" {
			name = t + "." + name
		}
	}
	return pass.Pkg.Path() + "." + name
}

func baseTypeName(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return baseTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return ""
}

// checkMapOrder flags map-range loops whose bodies leak iteration order
// into appended slices or emitted output.
func checkMapOrder(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, file, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(n.Lhs) {
					continue
				}
				switch target := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					if obj, ok := pass.TypesInfo.ObjectOf(target).(*types.Var); ok && sortedAfter(pass, file, rng, obj) {
						continue
					}
					pass.Reportf(n.Pos(), "appending to %s while ranging over a map without sorting it afterwards: iteration order leaks into the result", target.Name)
				case *ast.IndexExpr:
					// b[k] = append(b[k], ...) keyed by the range's own
					// key/value regroups deterministically (one bucket
					// per iteration variable); any other index
					// accumulates in iteration order.
					if indexUsesRangeVar(pass, rng, target.Index) {
						continue
					}
					pass.Reportf(n.Pos(), "appending to a bucket not keyed by this map range's variables: iteration order leaks into the bucket contents")
				default:
					pass.Reportf(n.Pos(), "append while ranging over a map: iteration order leaks into the result; collect keys and sort first")
				}
			}
		case *ast.CallExpr:
			if emitsOutput(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(), "emitting output while ranging over a map: iteration order leaks into the stream; range over sorted keys instead")
			}
		}
		return true
	})
}

// indexUsesRangeVar reports whether idx references the key or value
// variable bound by rng.
func indexUsesRangeVar(pass *analysis.Pass, rng *ast.RangeStmt, idx ast.Expr) bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	uses := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[pass.TypesInfo.ObjectOf(id)] {
			uses = true
		}
		return !uses
	})
	return uses
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether obj is passed to a sort call after the
// range loop, within the same enclosing function.
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, obj *types.Var) bool {
	enclosing := analysis.FuncFor(file, rng.Pos())
	if enclosing == nil {
		enclosing = file
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		if !isSortCall(pass.TypesInfo, call) || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.ObjectOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Sort", "Stable", "Slice", "SliceStable":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// emitsOutput recognizes calls that serialize directly to a stream:
// fmt printers with a writer, io writes, and json encoding.
func emitsOutput(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.ObjectOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return true
		}
	case "encoding/json":
		return fn.Name() == "Encode" || fn.Name() == "Marshal" || fn.Name() == "MarshalIndent"
	case "io":
		return fn.Name() == "WriteString"
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		// Writer-shaped methods (io.Writer, strings.Builder, bufio).
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
	}
	return false
}

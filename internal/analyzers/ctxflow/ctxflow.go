// Package ctxflow keeps cancellation threaded through the hot paths.
//
// Two rules:
//
//  1. inside a function that already receives a context.Context, a call
//     to a callee with a ...Context sibling (same package or same
//     method set, first parameter context.Context) must use that
//     sibling — dropping ctx on the floor silently disables the
//     deadline the server attaches to every request;
//  2. context.Background() belongs in package main, tests, and the
//     documented facade shims: a function X whose body returns
//     XContext(context.Background(), ...) and whose doc comment names
//     the Context variant. Anything else needs a //lint:allow entry
//     with a reason (the registry's detached build context is the one
//     such site).
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"rainshine/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "thread ctx to ...Context call variants and confine context.Background to main, tests, and documented facade shims",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasCtxParam(pass, fd) {
				checkThreading(pass, fd)
			}
			checkBackground(pass, fd)
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkThreading flags calls that ignore an available ...Context
// sibling while the enclosing function holds a ctx.
func checkThreading(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil || strings.HasSuffix(fn.Name(), "Context") {
			return true
		}
		if sibling := contextSibling(fn); sibling != nil {
			pass.Reportf(call.Pos(), "call to %s ignores its context-aware variant %s; thread this function's ctx through it", fn.Name(), sibling.Name())
		}
		return true
	})
}

// contextSibling finds a function Name+"Context" next to fn — in its
// method set for methods, in its package scope otherwise — whose first
// parameter is a context.Context.
func contextSibling(fn *types.Func) *types.Func {
	want := fn.Name() + "Context"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == want && takesCtxFirst(m) {
				return m
			}
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	if s, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && takesCtxFirst(s) {
		return s
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func takesCtxFirst(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// checkBackground flags context.Background() outside main and the
// facade-shim shape.
func checkBackground(pass *analysis.Pass, fd *ast.FuncDecl) {
	if pass.Pkg.Name() == "main" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" || fn.Name() != "Background" {
			return true
		}
		variant := fd.Name.Name + "Context"
		if !isFacadeShim(pass, fd, call) {
			pass.Reportf(call.Pos(), "context.Background() outside main, tests, and facade shims: accept a ctx or add a documented facade %s", variant)
			return true
		}
		if !strings.Contains(fd.Doc.Text(), variant) {
			pass.Reportf(call.Pos(), "facade shim %s must name %s in its doc comment so callers can find the cancellable variant", fd.Name.Name, variant)
		}
		return true
	})
}

// isFacadeShim reports whether the Background call feeds a return of
// <fd.Name>Context(...) — the documented ctx-free convenience wrapper.
func isFacadeShim(pass *analysis.Pass, fd *ast.FuncDecl, bg *ast.CallExpr) bool {
	shim := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || shim {
			return !shim
		}
		if len(ret.Results) != 1 {
			return true
		}
		call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		if !ok || !contains(call, bg) {
			return true
		}
		if fn := analysis.ObjectOf(pass.TypesInfo, call); fn != nil && fn.Name() == fd.Name.Name+"Context" {
			shim = true
		}
		return !shim
	})
	return shim
}

func contains(outer *ast.CallExpr, inner *ast.CallExpr) bool {
	return inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
}

// Package goleak enforces the goroutine-lifecycle contract: every
// `go` statement in production code must be joined or bounded, so a
// crashing or wedged goroutine cannot outlive the work that spawned
// it. A spawn passes if its enclosing function
//
//  1. joins through a sync.WaitGroup (a `.Wait()` call on a WaitGroup
//     anywhere in the function — deferred joins precede the spawn
//     lexically);
//  2. joins through a channel: a receive, select, or range over a
//     channel after the spawn; or
//  3. bounds the goroutine with a cancellable context: the spawned
//     expression references a context that is either a parameter of
//     the enclosing function or was created there via
//     context.WithCancel/WithTimeout/WithDeadline or
//     signal.NotifyContext.
//
// Rule 3 is hollow when the spawned function ignores its context, so
// the analyzer exports a CtxIgnored fact for every function whose
// context parameter has zero uses; `go f(ctx)` against such an f is
// flagged even though ctx is in scope — across package boundaries,
// through the fact store.
package goleak

import (
	"go/ast"
	"go/types"

	"rainshine/internal/analysis"
)

// Analyzer is the goleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc:  "require every spawned goroutine to be joined (WaitGroup, channel) or bounded by a cancellable context",
	Run:  run,
}

// CtxIgnored marks a function that takes a context.Context parameter
// and never reads it: passing such a function a cancellable context
// does not bound its lifetime.
type CtxIgnored struct{}

// FactKind implements analysis.Fact.
func (*CtxIgnored) FactKind() string { return "goleak.ctxIgnored" }

func run(pass *analysis.Pass) error {
	// Fact export first, so same-package spawns see their callees'
	// facts in the same pass.
	for _, file := range pass.Files {
		exportCtxFacts(pass, file)
	}
	for _, file := range pass.Files {
		checkSpawns(pass, file)
	}
	return nil
}

// exportCtxFacts records CtxIgnored for every declared function whose
// context parameter is never used in its body.
func exportCtxFacts(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Type.Params == nil {
			continue
		}
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil || name.Name == "_" || !isContext(obj.Type()) {
					continue
				}
				if !usesObject(pass.TypesInfo, fd.Body, obj) {
					if def := pass.TypesInfo.Defs[fd.Name]; def != nil {
						pass.ExportObjectFact(def, &CtxIgnored{})
					}
				}
			}
		}
	}
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func usesObject(info *types.Info, body ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

func checkSpawns(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		enclosing := analysis.FuncFor(file, g.Pos())
		if enclosing == nil {
			return true
		}
		if waitGroupJoined(pass, enclosing) || channelJoined(pass, enclosing, g) {
			return true
		}
		ctxs := contextsReferenced(pass, g)
		bounded := false
		for _, obj := range ctxs {
			if cancellableOrigin(pass, file, obj) {
				bounded = true
				break
			}
		}
		if !bounded {
			pass.Reportf(g.Pos(), "goroutine is never joined: add a WaitGroup or channel join, or bound it with a cancellable context")
			return true
		}
		// The context justification is void when the spawned function
		// provably ignores its context parameter.
		if fn := analysis.ObjectOf(pass.TypesInfo, g.Call); fn != nil {
			if _, ok := pass.ImportObjectFact(fn, (&CtxIgnored{}).FactKind()); ok {
				pass.Reportf(g.Pos(), "goroutine bounded only by a context that %s ignores: honor ctx in the callee or join the goroutine", fn.Name())
			}
		}
		return true
	})
}

// waitGroupJoined reports whether fn contains a sync.WaitGroup Wait
// call anywhere (deferred joins appear before the spawn, loop joins
// after; either orders the shutdown).
func waitGroupJoined(pass *analysis.Pass, fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		f := analysis.ObjectOf(pass.TypesInfo, call)
		if f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync" && f.Name() == "Wait" {
			found = true
		}
		return !found
	})
	return found
}

// channelJoined reports whether fn contains a channel receive, select,
// or range over a channel lexically after the spawn.
func channelJoined(pass *analysis.Pass, fn ast.Node, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if n.Pos() <= g.End() && n != fn {
			// Only subtrees that can reach past the spawn matter.
			if n.End() <= g.End() {
				return false
			}
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.OpPos > g.End() && n.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			if n.Pos() > g.End() {
				found = true
			}
		case *ast.RangeStmt:
			if n.Pos() > g.End() {
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// contextsReferenced collects the context.Context-typed objects the
// spawned call expression references (callee and arguments, including
// captures inside a spawned function literal).
func contextsReferenced(pass *analysis.Pass, g *ast.GoStmt) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] || !isContext(obj.Type()) {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// cancellableOrigin reports whether obj is a context whose cancel is
// reachable from this file: a function parameter (the caller owns the
// cancel) or a local created by a With*/NotifyContext constructor.
func cancellableOrigin(pass *analysis.Pass, file *ast.File, obj types.Object) bool {
	origin := false
	ast.Inspect(file, func(n ast.Node) bool {
		if origin {
			return false
		}
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				if pass.TypesInfo.Defs[name] == obj {
					origin = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[id] != obj {
					continue
				}
				for _, rhs := range n.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isCancellableCtor(pass.TypesInfo, call) {
						origin = true
					}
				}
			}
		}
		return !origin
	})
	return origin
}

func isCancellableCtor(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.ObjectOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "context":
		switch fn.Name() {
		case "WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause":
			return true
		}
	case "os/signal":
		return fn.Name() == "NotifyContext"
	}
	return false
}

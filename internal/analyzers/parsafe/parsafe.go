// Package parsafe guards internal/parallel's worker-slot exclusivity
// contract: tasks must communicate only through caller-owned,
// index-addressed slots. A closure handed to ForEach/ForEachWorker/Map
// that writes a captured variable directly — an accumulator, an
// appended slice, a map cell, a struct field — races across workers and
// breaks the serial/parallel byte-equality the determinism tests pin.
//
// Allowed writes inside such a closure:
//   - variables declared inside the closure (per-task locals);
//   - slice/array elements whose index involves a closure-local value
//     (the task index i, the worker slot w, or anything derived from
//     them) — the index-addressed slot pattern.
//
// Everything else is reported: plain assignments and ++/-- on captured
// variables, appends re-assigned to captured slices, writes through
// captured maps (concurrent map writes fault even with distinct keys),
// and field or pointer writes on captured values.
package parsafe

import (
	"go/ast"
	"go/types"

	"rainshine/internal/analysis"
)

// Analyzer is the parsafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "parsafe",
	Doc:  "closures passed to internal/parallel must write only through closure-local or index-addressed state",
	Run:  run,
}

// entryPoints are the internal/parallel functions taking task closures.
var entryPoints = map[string]bool{"ForEach": true, "ForEachWorker": true, "Map": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.ObjectOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !entryPoints[fn.Name()] || !isParallelPkg(fn.Pkg().Path()) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkClosure(pass, fn.Name(), lit)
				}
			}
			return true
		})
	}
	return nil
}

func isParallelPkg(path string) bool {
	return path == "rainshine/internal/parallel" || path == "parallel"
}

func checkClosure(pass *analysis.Pass, entry string, lit *ast.FuncLit) {
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, entry, lit, local, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, entry, lit, local, n.X)
		}
		return true
	})
}

// checkWrite vets one write target inside the closure. The target is
// unwound as a selector/index/deref chain down to its root identifier;
// a write whose chain passes through a slice element addressed by a
// closure-local index (grid[gi].Effect, sse[i][k], scratch[w]) is the
// sanctioned slot pattern, anything else touching captured state races.
func checkWrite(pass *analysis.Pass, entry string, lit *ast.FuncLit, local func(types.Object) bool, target ast.Expr) {
	target = ast.Unparen(target)
	if id, ok := target.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if _, isVar := obj.(*types.Var); isVar && !local(obj) {
			pass.Reportf(id.Pos(), "parallel.%s closure writes captured variable %s; tasks must communicate only through index-addressed slots", entry, id.Name)
		}
		return
	}
	root, slotIndexed, mapWrite := unwindChain(pass, local, target)
	if root == nil {
		return
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if _, isVar := obj.(*types.Var); !isVar || local(obj) {
		return
	}
	switch {
	case mapWrite:
		pass.Reportf(target.Pos(), "parallel.%s closure writes captured map %s; concurrent map writes fault even on distinct keys", entry, root.Name)
	case slotIndexed:
		// Index-addressed slot of a captured slice: the contract's
		// sanctioned communication channel.
	default:
		pass.Reportf(target.Pos(), "parallel.%s closure writes captured %s without indexing by a task-local value; slots must be index-addressed", entry, root.Name)
	}
}

// unwindChain walks a selector/index/deref chain to its root ident,
// noting whether it crosses a map cell or a locally indexed slice slot.
func unwindChain(pass *analysis.Pass, local func(types.Object) bool, e ast.Expr) (root *ast.Ident, slotIndexed, mapWrite bool) {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t, slotIndexed, mapWrite
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			if tx := pass.TypesInfo.TypeOf(t.X); tx != nil {
				if _, isMap := tx.Underlying().(*types.Map); isMap {
					mapWrite = true
				} else if indexUsesLocal(pass, local, t.Index) {
					slotIndexed = true
				}
			}
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil, slotIndexed, mapWrite
		}
	}
}

// indexUsesLocal reports whether the index expression involves any
// closure-local variable (the task/worker parameters or derivations).
func indexUsesLocal(pass *analysis.Pass, local func(types.Object) bool, idx ast.Expr) bool {
	uses := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !uses {
			if obj, isVar := pass.TypesInfo.ObjectOf(id).(*types.Var); isVar && local(obj) {
				uses = true
			}
		}
		return !uses
	})
	return uses
}

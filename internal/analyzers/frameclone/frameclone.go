// Package frameclone guards the shared-frame aliasing contract: a
// *frame.Frame received as a parameter of an exported function is
// potentially shared with concurrent readers, so attaching columns to
// it (AddContinuous and friends) without first re-pointing the variable
// at a ShallowClone (or another fresh frame) is the exact race class
// the predict/skucmp fixes closed by hand.
//
// The pass tracks two taints, in source order. The attach taint covers
// the column directory: an assignment from ShallowClone/Subset/Filter/
// Select or frame.New cleanses it, a plain alias (work := f) inherits
// it, and a mutating Add* call on a still-tainted variable is reported.
// The deep taint covers cell storage: ShallowClone and Select copy the
// directory but share the columns' cells, so only Subset/Filter/New —
// which copy cells — cleanse it. Columns derived from a deep-tainted
// frame (Col/MustCol/ColAt) alias caller-visible storage; calling
// SetMissing on them is reported unless the column was first re-pointed
// at a Clone. Codes() on such a column hands out the backing byte-code
// array itself, so element stores through the returned slice are
// reported the same way. Unexported functions are builders operating on
// locally owned frames and are exempt; the package defining Frame is
// the implementation and is skipped entirely.
package frameclone

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rainshine/internal/analysis"
)

// Analyzer is the frameclone pass.
var Analyzer = &analysis.Analyzer{
	Name: "frameclone",
	Doc:  "require ShallowClone before attaching columns to, and Subset/Clone before mutating cells of, a parameter-received *frame.Frame in exported functions",
	Run:  run,
}

// mutators are the column-attaching frame methods (attach taint).
var mutators = map[string]bool{
	"AddContinuous":   true,
	"AddNominalInts":  true,
	"AddOrdinalInts":  true,
	"AddNominalCodes": true,
	"AddOrdinalCodes": true,
	"AddColumn":       true,
}

// cellMutator is the column method that writes a missing cell (deep
// taint): it reaches through shared cell storage.
const cellMutator = "SetMissing"

// cleansers are the frame methods returning a frame the caller owns
// at the directory level. Only the subset that copies cell storage
// (deepCleansers) also clears the deep taint.
var cleansers = map[string]bool{
	"ShallowClone": true,
	"Subset":       true,
	"Filter":       true,
	"Select":       true,
}

// deepCleansers copy cell storage, not just the column directory.
var deepCleansers = map[string]bool{
	"Subset": true,
	"Filter": true,
}

// colDerivers hand out *Column views into a frame's storage.
var colDerivers = map[string]bool{
	"Col":     true,
	"MustCol": true,
	"ColAt":   true,
}

func run(pass *analysis.Pass) error {
	if definesFrame(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// definesFrame reports whether pkg is the frame implementation itself.
func definesFrame(pkg *types.Package) bool {
	obj, ok := pkg.Scope().Lookup("Frame").(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "ShallowClone" {
			return true
		}
	}
	return false
}

// isFramePtr matches *frame.Frame (any package whose Frame type has a
// ShallowClone method, so the analysistest fixture twin counts too).
func isFramePtr(t types.Type) bool {
	return isNamedPtrWithMethod(t, "Frame", "ShallowClone")
}

// isColumnPtr matches *frame.Column by its SetMissing method.
func isColumnPtr(t types.Type) bool {
	return isNamedPtrWithMethod(t, "Column", cellMutator)
}

func isNamedPtrWithMethod(t types.Type, name, method string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != name {
		return false
	}
	return hasMethod(named, method)
}

func hasMethod(named *types.Named, method string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == method {
			return true
		}
	}
	return false
}

// state is the per-function taint record the events replay over.
type state struct {
	attach map[*types.Var]bool // frame vars whose column directory is shared
	deep   map[*types.Var]bool // frame vars whose cell storage is shared
	col    map[*types.Var]bool // column vars viewing shared cell storage
	codes  map[*types.Var]bool // byte slices from Codes() of shared columns
}

// event is one taint-relevant statement, replayed in source order.
type event struct {
	pos token.Pos
	run func(st *state, report func(token.Pos, string))
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Seed both taints with the frame-typed parameters.
	st := &state{
		attach: map[*types.Var]bool{},
		deep:   map[*types.Var]bool{},
		col:    map[*types.Var]bool{},
		codes:  map[*types.Var]bool{},
	}
	sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isFramePtr(p.Type()) {
			st.attach[p] = true
			st.deep[p] = true
		}
	}
	if len(st.attach) == 0 {
		return
	}

	var events []event
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			events = append(events, assignEvents(pass, n)...)
			events = append(events, codesStoreEvents(pass, n)...)
		case *ast.CallExpr:
			if ev, ok := mutationEvent(pass, n); ok {
				events = append(events, ev)
			}
			if ev, ok := cellMutationEvent(pass, n); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, ev := range events {
		ev.run(st, func(pos token.Pos, msg string) {
			pass.Reportf(pos, "%s", msg)
		})
	}
}

// assignEvents classifies each assignment: cleansing calls clear the
// relevant taint, derivers inherit the receiver's taint, plain aliases
// of tainted variables propagate it. Tuple assignments (c, err :=
// f.Col(...); g, err := f.Select(...)) carry the single call on the
// right to the first value-position variable on the left.
func assignEvents(pass *analysis.Pass, as *ast.AssignStmt) []event {
	if len(as.Lhs) != len(as.Rhs) {
		// Tuple form: one multi-value call on the right.
		if len(as.Rhs) != 1 {
			return nil
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return nil
		}
		lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return nil
		}
		obj, ok := pass.TypesInfo.ObjectOf(lhs).(*types.Var)
		if !ok {
			return nil
		}
		if ev, ok := classifyAssign(pass, as.Pos(), obj, call); ok {
			return []event{ev}
		}
		return nil
	}
	var out []event
	for i := range as.Lhs {
		lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.TypesInfo.ObjectOf(lhs).(*types.Var)
		if !ok {
			continue
		}
		if ev, ok := classifyAssign(pass, as.Pos(), obj, ast.Unparen(as.Rhs[i])); ok {
			out = append(out, ev)
		}
	}
	return out
}

// classifyAssign builds the taint-update event for lhs = rhs, keyed on
// the static type of the left-hand variable.
func classifyAssign(pass *analysis.Pass, pos token.Pos, obj *types.Var, rhs ast.Expr) (event, bool) {
	switch {
	case isFramePtr(obj.Type()):
		return frameAssign(pass, pos, obj, rhs), true
	case isColumnPtr(obj.Type()):
		return columnAssign(pass, pos, obj, rhs), true
	case isByteSlice(obj.Type()):
		return codesAssign(pass, pos, obj, rhs), true
	}
	return event{}, false
}

// isByteSlice matches []uint8 (equivalently []byte), the type Codes()
// hands out.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// codesAssign tracks byte slices: Codes() on a shared column hands out
// the column's backing code array itself, so the slice inherits the
// column's view taint; a plain alias propagates it; anything else (a
// fresh make, an owned buffer) clears it.
func codesAssign(pass *analysis.Pass, pos token.Pos, obj *types.Var, rhs ast.Expr) event {
	if name, recv, ok := methodCall(pass, rhs, isColumnPtr); ok && name == "Codes" {
		return event{pos, func(st *state, _ func(token.Pos, string)) {
			setTaint(st.codes, obj, recv != nil && st.col[recv])
		}}
	}
	if src := aliasSource(pass, rhs); src != nil {
		return event{pos, func(st *state, _ func(token.Pos, string)) { setTaint(st.codes, obj, st.codes[src]) }}
	}
	return event{pos, func(st *state, _ func(token.Pos, string)) { delete(st.codes, obj) }}
}

// codesStoreEvents matches element stores (codes[i] = v, including
// op-assigns) through a tracked byte slice: writing there rewrites the
// shared column's cells in place.
func codesStoreEvents(pass *analysis.Pass, as *ast.AssignStmt) []event {
	var out []event
	for _, lhs := range as.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || !isByteSlice(obj.Type()) {
			continue
		}
		out = append(out, event{as.Pos(), func(st *state, report func(token.Pos, string)) {
			if st.codes[obj] {
				report(ix.Pos(), "writing through "+id.Name+", which aliases a shared column's byte-code storage; Clone the column first")
			}
		}})
	}
	return out
}

func frameAssign(pass *analysis.Pass, pos token.Pos, obj *types.Var, rhs ast.Expr) event {
	if name, recv, ok := methodCall(pass, rhs, isFramePtr); ok && cleansers[name] {
		deepClean := deepCleansers[name]
		return event{pos, func(st *state, _ func(token.Pos, string)) {
			delete(st.attach, obj)
			if deepClean || recv == nil || !st.deep[recv] {
				delete(st.deep, obj)
			} else {
				// ShallowClone/Select: directory copied, cells shared.
				st.deep[obj] = true
			}
		}}
	}
	if src := aliasSource(pass, rhs); src != nil {
		return event{pos, func(st *state, _ func(token.Pos, string)) {
			setTaint(st.attach, obj, st.attach[src])
			setTaint(st.deep, obj, st.deep[src])
		}}
	}
	return event{pos, func(st *state, _ func(token.Pos, string)) {
		delete(st.attach, obj)
		delete(st.deep, obj)
	}}
}

func columnAssign(pass *analysis.Pass, pos token.Pos, obj *types.Var, rhs ast.Expr) event {
	if name, recv, ok := methodCall(pass, rhs, isFramePtr); ok && colDerivers[name] {
		return event{pos, func(st *state, _ func(token.Pos, string)) {
			setTaint(st.col, obj, recv != nil && st.deep[recv])
		}}
	}
	if name, _, ok := methodCall(pass, rhs, isColumnPtr); ok && name == "Clone" {
		return event{pos, func(st *state, _ func(token.Pos, string)) { delete(st.col, obj) }}
	}
	if src := aliasSource(pass, rhs); src != nil {
		return event{pos, func(st *state, _ func(token.Pos, string)) { setTaint(st.col, obj, st.col[src]) }}
	}
	return event{pos, func(st *state, _ func(token.Pos, string)) { delete(st.col, obj) }}
}

// methodCall matches recv.Name(...) where the receiver type satisfies
// wantRecv, returning the method name and (when the receiver is a bare
// identifier) the receiver variable.
func methodCall(pass *analysis.Pass, e ast.Expr, wantRecv func(types.Type) bool) (string, *types.Var, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", nil, false
	}
	fn := analysis.ObjectOf(pass.TypesInfo, call)
	if fn == nil {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !wantRecv(sig.Recv().Type()) {
		return "", nil, false
	}
	var recv *types.Var
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			recv, _ = pass.TypesInfo.ObjectOf(id).(*types.Var)
		}
	}
	return fn.Name(), recv, true
}

func setTaint(m map[*types.Var]bool, v *types.Var, on bool) {
	if on {
		m[v] = true
	} else {
		delete(m, v)
	}
}

// aliasSource returns the variable a bare identifier RHS refers to.
func aliasSource(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v
}

// mutationEvent matches x.AddContinuous(...) etc. with x a tracked var.
func mutationEvent(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	name, recv, ok := methodCall(pass, call, isFramePtr)
	if !ok || !mutators[name] || recv == nil {
		return event{}, false
	}
	return event{call.Pos(), func(st *state, report func(token.Pos, string)) {
		if st.attach[recv] {
			report(call.Pos(), "attaching a column to "+recv.Name()+", which aliases a parameter frame shared with the caller; ShallowClone it first")
		}
	}}, true
}

// cellMutationEvent matches c.SetMissing(i) with c a tracked column
// viewing shared storage.
func cellMutationEvent(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	name, recv, ok := methodCall(pass, call, isColumnPtr)
	if !ok || name != cellMutator || recv == nil {
		return event{}, false
	}
	return event{call.Pos(), func(st *state, report func(token.Pos, string)) {
		if st.col[recv] {
			report(call.Pos(), "marking nulls on "+recv.Name()+", which views cell storage shared with the caller; Subset/Filter the frame or Clone the column first")
		}
	}}, true
}

// Package clockinject extends detrand's wall-clock rule to the
// injected-clock pattern the resilience and fault layers rely on: a
// `now func() time.Time` field, defaulted with `now = time.Now` (a
// value reference, never a call), so tests can freeze time. Three
// rules:
//
//   - A: a method of a type carrying a `now func() time.Time` field
//     must call the field, not the package — `time.Now()` and
//     `time.Since(x)` are flagged with autofixes rewriting them to
//     `recv.now()` / `recv.now().Sub(x)`;
//   - B: the clock-injected packages (internal/resilience,
//     internal/faults) may not call any wall-clock or timer function
//     in package time at all, nor any function another package has
//     exported a WallClock fact for;
//   - C: everywhere else (package main and tests excepted), the timer
//     primitives — NewTimer, NewTicker, After, Tick, Sleep, AfterFunc
//     — are flagged: timers must derive from an injected clock or
//     carry a reasoned //lint:allow (time.Now/Since remain detrand's
//     jurisdiction).
//
// The WallClock fact marks a function that (transitively) calls a
// wall-clock or timer function, letting rule B see through package
// boundaries.
package clockinject

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"rainshine/internal/analysis"
)

// Analyzer is the clockinject pass.
var Analyzer = &analysis.Analyzer{
	Name: "clockinject",
	Doc:  "enforce the injected-clock pattern: no wall-clock or timer calls where a now func is available or required",
	Run:  run,
}

// WallClock marks a function that reads the wall clock or creates a
// wall-clock timer, directly or through a callee.
type WallClock struct{}

// FactKind implements analysis.Fact.
func (*WallClock) FactKind() string { return "clockinject.wallclock" }

// clockInjected lists the packages whose public contract is "time is a
// pure function of the injected clock".
var clockInjected = map[string]bool{
	"rainshine/internal/resilience": true,
	"rainshine/internal/faults":     true,
	"clockinj":                      true, // analysistest fixture twin
}

// timerFuncs are the rule-C primitives: each schedules against the
// runtime's wall clock.
var timerFuncs = map[string]bool{
	"NewTimer": true, "NewTicker": true, "After": true,
	"Tick": true, "Sleep": true, "AfterFunc": true,
}

// isTimePkgFunc reports whether fn is a package-level function of
// package time (methods like time.Time.After share the package but
// read no clock).
func isTimePkgFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func isTimeCall(fn *types.Func) bool {
	return isTimePkgFunc(fn) && (timerFuncs[fn.Name()] || fn.Name() == "Now" || fn.Name() == "Since")
}

func run(pass *analysis.Pass) error {
	exportWallClockFacts(pass)
	for _, file := range pass.Files {
		checkFile(pass, file)
	}
	return nil
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	injected := clockInjected[pass.Pkg.Path()]
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if isTimePkgFunc(fn) {
			name := fn.Name()
			if name == "Now" || name == "Since" {
				if recv, ok := nowFieldReceiver(pass, file, call); ok {
					reportWithFix(pass, call, recv, name)
					return true
				}
			}
			if injected && (timerFuncs[name] || name == "Now" || name == "Since") {
				pass.Reportf(call.Pos(), "time.%s in clock-injected package %s: time here must flow through the injected now func", name, pass.Pkg.Path())
				return true
			}
			if !injected && timerFuncs[name] && pass.Pkg.Name() != "main" {
				pass.Reportf(call.Pos(), "time.%s creates a wall-clock timer: derive it from an injected clock or justify it with //lint:allow clockinject", name)
			}
			return true
		}
		// Rule B through facts: a clock-injected package calling into a
		// function some other package proved reads the wall clock.
		if injected && fn.Pkg() != nil && fn.Pkg().Path() != pass.Pkg.Path() {
			if _, ok := pass.ImportObjectFact(fn, (&WallClock{}).FactKind()); ok {
				pass.Reportf(call.Pos(), "call to %s, which reads the wall clock, from clock-injected package %s", fn.Name(), pass.Pkg.Path())
			}
		}
		return true
	})
}

// nowFieldReceiver reports whether call sits in a method whose
// receiver type carries a `now func() time.Time` field, returning the
// receiver's name.
func nowFieldReceiver(pass *analysis.Pass, file *ast.File, call *ast.CallExpr) (string, bool) {
	fd := enclosingDecl(file, call.Pos())
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", false
	}
	name := fd.Recv.List[0].Names[0].Name
	if name == "_" {
		return "", false
	}
	obj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if obj == nil {
		return "", false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "now" {
			continue
		}
		sig, ok := f.Type().(*types.Signature)
		if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 && isTimeTime(sig.Results().At(0).Type()) {
			return name, true
		}
	}
	return "", false
}

func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Time"
}

func enclosingDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos < fd.End() {
			return fd
		}
	}
	return nil
}

func reportWithFix(pass *analysis.Pass, call *ast.CallExpr, recv, name string) {
	d := analysis.Diagnostic{
		Pos:      call.Pos(),
		Analyzer: pass.Analyzer.Name,
	}
	switch name {
	case "Now":
		d.Message = fmt.Sprintf("time.Now in a method of a clock-injected type: call %s.now() so tests can freeze time", recv)
		d.SuggestedFixes = []analysis.SuggestedFix{{
			Message: fmt.Sprintf("replace time.Now() with %s.now()", recv),
			TextEdits: []analysis.TextEdit{{
				Pos: call.Pos(), End: call.End(), NewText: []byte(recv + ".now()"),
			}},
		}}
	case "Since":
		if len(call.Args) != 1 {
			d.Message = "time.Since in a method of a clock-injected type: use the injected now func"
			break
		}
		d.Message = fmt.Sprintf("time.Since in a method of a clock-injected type: call %s.now().Sub(...) so tests can freeze time", recv)
		d.SuggestedFixes = []analysis.SuggestedFix{{
			Message: fmt.Sprintf("replace time.Since with %s.now().Sub", recv),
			TextEdits: []analysis.TextEdit{{
				Pos: call.Pos(), End: call.Args[0].Pos(), NewText: []byte(recv + ".now().Sub("),
			}},
		}}
	}
	pass.Report(d)
}

// exportWallClockFacts computes, to an in-package fixpoint, which
// declared functions (transitively) call wall-clock or timer
// functions, and exports a WallClock fact for each. Value references
// like `now = time.Now` do not count: only calls read the clock.
func exportWallClockFacts(pass *analysis.Pass) {
	direct := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			def, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			order = append(order, def)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.ObjectOf(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				if isTimeCall(fn) {
					direct[def] = true
				} else if fn.Pkg() != nil && fn.Pkg().Path() != pass.Pkg.Path() {
					if _, ok := pass.ImportObjectFact(fn, (&WallClock{}).FactKind()); ok {
						direct[def] = true
					}
				} else {
					calls[def] = append(calls[def], fn)
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, def := range order {
			if direct[def] {
				continue
			}
			for _, callee := range calls[def] {
				if direct[callee] {
					direct[def] = true
					changed = true
					break
				}
			}
		}
	}
	for _, def := range order {
		if direct[def] {
			pass.ExportObjectFact(def, &WallClock{})
		}
	}
}

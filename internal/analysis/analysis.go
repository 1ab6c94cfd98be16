// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package at a time and reports position-anchored
// diagnostics. The repository vendors no external modules, so the suite
// in internal/analyzers builds on this package instead of x/tools; the
// API mirrors x/tools closely enough that migrating later is mechanical.
// One x/tools field is dropped: Analyzer has no FactTypes, since facts
// never leave the driver's process and so need no type registry.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. Run inspects a single
// package via its Pass and reports findings through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression annotations.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed source files (tests excluded:
	// the invariants guard production code, and test fixtures violate
	// them on purpose). Analyzers rely on this and do not filter test
	// files themselves.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// TestFiles holds syntax-only parses of the package's *_test.go
	// files (no type information — they are never type-checked).
	// Analyzers that audit test-side artifacts (benchgate's snapshot
	// gates) read them; everything else ignores them.
	TestFiles []*ast.File
	// Dir is the package's source directory, for analyzers that must
	// consult sibling build artifacts (benchgate's Makefile lookup).
	Dir string
	// Facts is the run-wide fact store shared by every pass. Facts
	// exported while analyzing a dependency are importable here.
	Facts *FactStore

	// Report delivers one diagnostic. The driver attributes it to the
	// running analyzer and applies `//lint:allow` suppression.
	Report func(Diagnostic)
}

// TextEdit is one replacement: the bytes in [Pos, End) become NewText.
// An insertion has Pos == End.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// SuggestedFix is one machine-applicable resolution of a diagnostic,
// applied by `rainshinelint -fix` and verified against golden .fixed
// files by the analysistest harness. Edits must not overlap.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// SuggestedFixes, when non-empty, resolve the finding mechanically.
	// Every fix in the list is applied by -fix (they must be disjoint
	// aspects of the same finding, not alternatives).
	SuggestedFixes []SuggestedFix
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// FuncFor returns the innermost enclosing function declaration or
// literal for pos within file, or nil.
func FuncFor(file *ast.File, pos token.Pos) ast.Node {
	var enclosing ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false // prune subtrees that do not contain pos
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			enclosing = n
		}
		return true
	})
	return enclosing
}

// ObjectOf resolves the called function object for a call expression,
// unwrapping parenthesized callees. Returns nil for calls through
// non-function expressions (conversions, function-valued variables).
func ObjectOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

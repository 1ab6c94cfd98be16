// Package lockorder enforces the locking discipline that keeps the
// serving tier deadlock-free:
//
//  1. no blocking operation — channel send/receive, select, range over
//     a channel, time.Sleep, WaitGroup.Wait, net/os I/O, or a call to
//     a function known to block — may run while a mutex is held; the
//     held region is lexical, from the Lock call to the first matching
//     Unlock on the same expression (deferred unlocks hold to the end
//     of the function);
//  2. two locks acquired in both orders anywhere in the package graph
//     are a deadlock waiting for contention; the per-package lock-site
//     graph is assembled from direct acquisitions plus the Locks facts
//     of callees, so an inversion spanning a package boundary is still
//     caught.
//
// Copying a value that carries a lock is go vet's copylocks check, which
// CI already runs, so this pass does not repeat it.
//
// Two facts cross function and package boundaries: Blocks (the
// function may block) and Locks (the lock sites the function may
// acquire, transitively). Both are computed to a fixpoint over the
// in-package call graph and exported for dependents.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rainshine/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "forbid blocking calls under a held mutex and lock-order inversions",
	Run:       run,
	FactTypes: []analysis.Fact{&Blocks{}, &Locks{}},
}

// Blocks marks a function that may block: it performs a channel
// operation, waits, sleeps, does I/O, or calls something that does.
type Blocks struct{}

// FactKind implements analysis.Fact.
func (*Blocks) FactKind() string { return "lockorder.blocks" }

// Locks lists the lock sites ("pkg.Type.field") a function may
// acquire, directly or through its callees.
type Locks struct {
	Sites []string `json:"sites"`
}

// FactKind implements analysis.Fact.
func (*Locks) FactKind() string { return "lockorder.locks" }

// lockRegion is one lexically-held stretch of a mutex within one
// scope (a function body or a function literal's body — literals are
// separate scopes, so a lock balanced inside a deferred closure does
// not appear held for the rest of the enclosing function).
type lockRegion struct {
	site       string
	start, end token.Pos
	scope      ast.Node
}

// acquire is one direct lock acquisition.
type acquire struct {
	site string
	pos  token.Pos
}

// funcInfo is the per-declaration summary both rules consume.
type funcInfo struct {
	decl         *ast.FuncDecl
	obj          *types.Func
	directBlocks bool
	calls        []*types.Func
	regions      []lockRegion
	acquires     []acquire
}

func run(pass *analysis.Pass) error {
	var infos []*funcInfo
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				infos = append(infos, collect(pass, fd))
			}
		}
	}
	blocks, locks := fixpoint(pass, infos)
	exportFacts(pass, infos, blocks, locks)
	edges := map[[2]string]token.Pos{}
	for _, fi := range infos {
		checkRegions(pass, fi, blocks, locks, edges)
	}
	reportInversions(pass, edges)
	return nil
}

// ---- collection ----

func collect(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{decl: fd}
	if def, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		fi.obj = def
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() != pass.Pkg.Path() {
			// Cross-package callee: fold its exported facts in as if
			// the behavior were local.
			if _, ok := pass.ImportObjectFact(fn, (&Blocks{}).FactKind()); ok {
				fi.directBlocks = true
			}
		}
		fi.calls = append(fi.calls, fn)
		return true
	})
	collectScopeRegions(pass, fi, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			collectScopeRegions(pass, fi, fl.Body)
		}
		return true
	})
	fi.directBlocks = fi.directBlocks || hasDirectBlocking(pass, fd.Body)
	return fi
}

// collectScopeRegions finds the lock-held regions of one scope,
// ignoring nested function literals (each is its own scope). An
// unlock that is itself the call of a `defer` runs at scope exit, so
// it does not close the region; an unlock inside a deferred closure
// belongs to that closure's scope instead.
func collectScopeRegions(pass *analysis.Pass, fi *funcInfo, scope *ast.BlockStmt) {
	deferred := map[*ast.CallExpr]bool{}
	inScope := func(walk func(n ast.Node) bool) {
		ast.Inspect(scope, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return walk(n)
		})
	}
	inScope(func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	type lockCall struct {
		expr string
		sel  *ast.SelectorExpr
		call *ast.CallExpr
	}
	type unlockCall struct {
		expr string
		pos  token.Pos
	}
	var lockCalls []lockCall
	var unlocks []unlockCall
	inScope(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.ObjectOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch fn.Name() {
		case "Lock", "RLock":
			fi.acquires = append(fi.acquires, acquire{site: siteName(pass, sel.X), pos: call.Pos()})
			lockCalls = append(lockCalls, lockCall{expr: types.ExprString(sel.X), sel: sel, call: call})
		case "Unlock", "RUnlock":
			if !deferred[call] {
				unlocks = append(unlocks, unlockCall{expr: types.ExprString(sel.X), pos: call.Pos()})
			}
		}
		return true
	})
	for _, lc := range lockCalls {
		end := scope.End()
		for _, u := range unlocks {
			if u.expr == lc.expr && u.pos > lc.call.End() && u.pos < end {
				end = u.pos
			}
		}
		fi.regions = append(fi.regions, lockRegion{site: siteName(pass, lc.sel.X), start: lc.call.End(), end: end, scope: scope})
	}
}

// siteName renders a lock expression as a stable graph node:
// "pkg.Type.field" for struct-field locks, falling back to the
// package-qualified expression text.
func siteName(pass *analysis.Pass, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
			}
		}
	}
	return pass.Pkg.Path() + "." + types.ExprString(recv)
}

// hasDirectBlocking reports whether body performs a blocking operation
// outside nested function literals.
func hasDirectBlocking(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := analysis.ObjectOf(pass.TypesInfo, n); fn != nil {
				if _, ok := blockingStdlib(fn); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// blockingStdlib classifies well-known blocking standard-library calls.
func blockingStdlib(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync Wait", true
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen", "Accept":
			return "net I/O", true
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head", "Serve", "ListenAndServe":
			return "net/http I/O", true
		}
	case "os":
		switch fn.Name() {
		case "ReadFile", "WriteFile", "Open", "Create", "OpenFile", "Read", "Write", "Sync":
			return "os I/O", true
		}
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "ReadAll", "ReadFull":
			return "io transfer", true
		}
	}
	return "", false
}

// ---- fixpoint + facts ----

func fixpoint(pass *analysis.Pass, infos []*funcInfo) (map[*types.Func]bool, map[*types.Func]map[string]bool) {
	byObj := map[*types.Func]*funcInfo{}
	for _, fi := range infos {
		if fi.obj != nil {
			byObj[fi.obj] = fi
		}
	}
	blocks := map[*types.Func]bool{}
	locks := map[*types.Func]map[string]bool{}
	for _, fi := range infos {
		if fi.obj == nil {
			continue
		}
		blocks[fi.obj] = fi.directBlocks
		set := map[string]bool{}
		for _, a := range fi.acquires {
			set[a.site] = true
		}
		for _, callee := range fi.calls {
			if callee.Pkg() != nil && callee.Pkg().Path() != pass.Pkg.Path() {
				if f, ok := pass.ImportObjectFact(callee, (&Locks{}).FactKind()); ok {
					for _, s := range f.(*Locks).Sites {
						set[s] = true
					}
				}
			}
		}
		locks[fi.obj] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if fi.obj == nil {
				continue
			}
			for _, callee := range fi.calls {
				if _, inPkg := byObj[callee]; !inPkg {
					continue
				}
				if blocks[callee] && !blocks[fi.obj] {
					blocks[fi.obj] = true
					changed = true
				}
				for s := range locks[callee] {
					if !locks[fi.obj][s] {
						locks[fi.obj][s] = true
						changed = true
					}
				}
			}
		}
	}
	return blocks, locks
}

func exportFacts(pass *analysis.Pass, infos []*funcInfo, blocks map[*types.Func]bool, locks map[*types.Func]map[string]bool) {
	for _, fi := range infos {
		if fi.obj == nil {
			continue
		}
		if blocks[fi.obj] {
			pass.ExportObjectFact(fi.obj, &Blocks{})
		}
		if set := locks[fi.obj]; len(set) > 0 {
			sites := make([]string, 0, len(set))
			for s := range set {
				sites = append(sites, s)
			}
			sort.Strings(sites)
			pass.ExportObjectFact(fi.obj, &Locks{Sites: sites})
		}
	}
}

// ---- rules 1 + 2: held regions ----

func checkRegions(pass *analysis.Pass, fi *funcInfo, blocks map[*types.Func]bool, locks map[*types.Func]map[string]bool, edges map[[2]string]token.Pos) {
	for _, region := range fi.regions {
		ast.Inspect(region.scope, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				// A literal defined here runs later; a deferred call
				// runs at return, normally after the unlock.
				return false
			}
			if n == nil || n.Pos() <= region.start || n.Pos() >= region.end {
				// Still descend: children may fall inside the region
				// even when this node starts before it.
				return n == nil || n.End() > region.start
			}
			switch n := n.(type) {
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send while %s is held: release the lock before communicating", region.site)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive while %s is held: release the lock before communicating", region.site)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select while %s is held: release the lock before communicating", region.site)
				return false
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over a channel while %s is held: release the lock before communicating", region.site)
					}
				}
			case *ast.CallExpr:
				fn := analysis.ObjectOf(pass.TypesInfo, n)
				if fn == nil {
					return true
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					switch fn.Name() {
					case "Lock", "RLock":
						if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
							if b := siteName(pass, sel.X); b != region.site {
								addEdge(edges, region.site, b, n.Pos())
							}
						}
						return true
					case "Unlock", "RUnlock", "TryLock", "TryRLock":
						return true
					}
				}
				if desc, ok := blockingStdlib(fn); ok {
					pass.Reportf(n.Pos(), "%s while %s is held: release the lock before blocking", desc, region.site)
					return true
				}
				if blocks[fn] {
					pass.Reportf(n.Pos(), "call to %s, which blocks, while %s is held: release the lock first", fn.Name(), region.site)
				}
				if _, ok := pass.ImportObjectFact(fn, (&Blocks{}).FactKind()); ok && !blocks[fn] {
					pass.Reportf(n.Pos(), "call to %s, which blocks, while %s is held: release the lock first", fn.Name(), region.site)
				}
				for s := range lockSitesOf(pass, fn, locks) {
					if s != region.site {
						addEdge(edges, region.site, s, n.Pos())
					}
				}
			}
			return true
		})
	}
}

func lockSitesOf(pass *analysis.Pass, fn *types.Func, locks map[*types.Func]map[string]bool) map[string]bool {
	if set, ok := locks[fn]; ok {
		return set
	}
	if f, ok := pass.ImportObjectFact(fn, (&Locks{}).FactKind()); ok {
		set := map[string]bool{}
		for _, s := range f.(*Locks).Sites {
			set[s] = true
		}
		return set
	}
	return nil
}

func addEdge(edges map[[2]string]token.Pos, from, to string, pos token.Pos) {
	key := [2]string{from, to}
	if _, ok := edges[key]; !ok {
		edges[key] = pos
	}
}

// reportInversions flags every lock pair acquired in both orders, once
// per pair, at the lexically-first edge site.
func reportInversions(pass *analysis.Pass, edges map[[2]string]token.Pos) {
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if k[0] >= k[1] {
			continue
		}
		if _, rev := edges[[2]string{k[1], k[0]}]; rev {
			pass.Reportf(edges[k], "lock order inversion: %s and %s are acquired in both orders; pick one order and hold to it", k[0], k[1])
		}
	}
}

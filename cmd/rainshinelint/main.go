// Command rainshinelint runs the repository's invariant suite — the
// nine analyzers in internal/analyzers — over the module that contains
// the working directory:
//
//	rainshinelint [-fix] [packages]
//
// Packages are "all" or "<module>/..." for the whole module,
// "./<dir>/..." or "<module>/<dir>/..." for every package at or under
// a directory, and "./<dir>" or an import path for one package; none
// means "./...". Relative patterns ("./", "../", "." and "..") resolve
// against the working directory, as the go command's do, and must stay
// inside the module: "./..." run from internal/stream lints
// internal/stream and the packages under it, and from the module root
// the whole module.
//
// The driver walks up to go.mod and type-checks everything from source
// (stdlib included), so it needs no network, no module cache, and no
// pre-built export data. Packages are analyzed in dependency order
// over one shared fact store, so facts exported while analyzing
// internal/resilience are visible while analyzing internal/server.
//
// -fix applies every suggested fix carried by an unsuppressed
// diagnostic and rewrites the files in place. Fixable findings do not
// count against the exit status once applied; a second run finds
// nothing to fix, which is the idempotence CI checks.
//
// Exit status: 0 clean, 1 findings, a package that fails to load, or a
// usage error.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"rainshine/internal/analysis"
	"rainshine/internal/analysis/load"
	"rainshine/internal/analyzers"
)

// usage is printed after a command-line error.
const usage = `usage: rainshinelint [-fix] [packages]
  e.g. rainshinelint ./...   or   rainshinelint ./internal/stream/...
rainshinelint loads and type-checks packages itself; run it directly, not through go vet.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses the command line, lints, and returns the exit status.
// Diagnostics and errors go to stderr.
func run(args []string, stderr io.Writer) int {
	fix := false
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-fix" || a == "--fix":
			fix = true
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "rainshinelint: unknown flag %s\n%s", a, usage)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	return lint(patterns, fix, stderr)
}

// diag is one finding ready for printing.
type diag struct {
	pos      token.Position
	analyzer string
	message  string
	fixable  bool
}

func (d diag) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.pos, d.message, d.analyzer)
}

// suiteResult carries one package's findings: the printable list and
// the raw diagnostics whose suggested fixes -fix can apply.
type suiteResult struct {
	diags   []diag
	fixable []analysis.Diagnostic
}

// runSuite applies every analyzer to one package and returns the
// findings that survive //lint:allow suppression. Test files take part
// as syntax-only parses: benchgate audits them, and allow annotations
// inside them are honored.
func runSuite(p *load.Package, facts *analysis.FactStore) suiteResult {
	fset := p.Fset
	testFiles := load.ParseTestFiles(fset, p.Dir)
	allows := analysis.CollectAllows(fset, append(append([]*ast.File(nil), p.Files...), testFiles...))
	var res suiteResult
	for _, pos := range allows.Invalid {
		res.diags = append(res.diags, diag{fset.Position(pos), "lint", "malformed //lint:allow: need `//lint:allow <analyzer> <reason>`", false})
	}
	for _, a := range analyzers.All() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			TestFiles: testFiles,
			Dir:       p.Dir,
			Facts:     facts,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			if allows.Allowed(fset, d) {
				return
			}
			res.diags = append(res.diags, diag{fset.Position(d.Pos), d.Analyzer, d.Message, len(d.SuggestedFixes) > 0})
			if len(d.SuggestedFixes) > 0 {
				res.fixable = append(res.fixable, d)
			}
		}
		if err := a.Run(pass); err != nil {
			res.diags = append(res.diags, diag{token.Position{}, a.Name, fmt.Sprintf("analyzer error: %v", err), false})
		}
	}
	sort.Slice(res.diags, func(i, j int) bool {
		if res.diags[i].pos.Filename != res.diags[j].pos.Filename {
			return res.diags[i].pos.Filename < res.diags[j].pos.Filename
		}
		return res.diags[i].pos.Offset < res.diags[j].pos.Offset
	})
	// Nested constructs (a map range inside a map range) can surface
	// the same finding twice; report each once.
	dedup := res.diags[:0]
	for i, d := range res.diags {
		if i == 0 || d != res.diags[i-1] {
			dedup = append(dedup, d)
		}
	}
	res.diags = dedup
	return res
}

// lint runs the suite over the packages the patterns name.
func lint(patterns []string, fix bool, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rainshinelint:", err)
		return 1
	}
	module, root, err := findModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "rainshinelint:", err)
		return 1
	}
	paths, err := expand(module, root, cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "rainshinelint:", err)
		return 1
	}
	loader := load.NewLoader(module, root)
	facts := analysis.NewFactStore()
	results := map[string]suiteResult{}
	analyzed := map[string]bool{}
	loadErrs := 0
	// visit analyzes path after its module-internal imports, so every
	// pass sees its dependencies' facts.
	var visit func(path string) error
	visit = func(path string) error {
		if analyzed[path] {
			return nil
		}
		analyzed[path] = true
		p, err := loader.Load(path)
		if err != nil {
			return err
		}
		imports := make([]string, 0, len(p.Types.Imports()))
		for _, imp := range p.Types.Imports() {
			if ip := imp.Path(); ip == module || strings.HasPrefix(ip, module+"/") {
				imports = append(imports, ip)
			}
		}
		sort.Strings(imports)
		for _, ip := range imports {
			if err := visit(ip); err != nil {
				return err
			}
		}
		results[path] = runSuite(p, facts)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			fmt.Fprintf(stderr, "rainshinelint: %v\n", err)
			loadErrs++
		}
	}
	var fixableAll []analysis.Diagnostic
	for _, path := range paths {
		fixableAll = append(fixableAll, results[path].fixable...)
	}
	fixedPositions := map[token.Position]bool{}
	if fix && len(fixableAll) > 0 {
		fixed, err := analysis.ApplyFixes(loader.Fset, fixableAll, os.ReadFile)
		if err != nil {
			fmt.Fprintln(stderr, "rainshinelint: applying fixes:", err)
			return 1
		}
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mode := os.FileMode(0o644)
			if fi, err := os.Stat(name); err == nil {
				mode = fi.Mode().Perm()
			}
			if err := os.WriteFile(name, fixed[name], mode); err != nil {
				fmt.Fprintln(stderr, "rainshinelint:", err)
				return 1
			}
			fmt.Fprintf(stderr, "rainshinelint: fixed %s\n", name)
		}
		for _, d := range fixableAll {
			fixedPositions[loader.Fset.Position(d.Pos)] = true
		}
	}
	bad := loadErrs
	for _, path := range paths {
		for _, d := range results[path].diags {
			if fix && d.fixable && fixedPositions[d.pos] {
				fmt.Fprintf(stderr, "%s (fixed)\n", d)
				continue
			}
			fmt.Fprintln(stderr, d)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// findModule walks up from dir to go.mod.
func findModule(dir string) (module, root string, err error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(m), dir, nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// expand resolves package patterns to import paths (see the package
// doc). Relative patterns resolve against cwd, as the go command's do.
// A "/..." pattern selects, from load.ModulePackages, every module
// package at or under its directory, and is an error when it selects
// none.
func expand(module, root, cwd string, patterns []string) ([]string, error) {
	var out, all []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		ip := pat
		if pat == "all" {
			ip = module + "/..."
		} else if isRelative(pat) {
			dir, tree := strings.CutSuffix(pat, "/...")
			rel, err := filepath.Rel(root, filepath.Join(cwd, filepath.FromSlash(dir)))
			if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				return nil, fmt.Errorf("pattern %s names a directory outside module %s", pat, module)
			}
			ip = path.Join(module, filepath.ToSlash(rel))
			if tree {
				ip += "/..."
			}
		}
		dir, tree := strings.CutSuffix(ip, "/...")
		if !tree {
			add(ip)
			continue
		}
		if all == nil {
			var err error
			if all, err = load.ModulePackages(module, root); err != nil {
				return nil, err
			}
		}
		matched := false
		for _, p := range all {
			if p == dir || strings.HasPrefix(p, dir+"/") {
				add(p)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %s matches no package of module %s", pat, module)
		}
	}
	return out, nil
}

// isRelative reports whether a pattern is a file-system path relative
// to the working directory: ".", "..", or one starting with "./" or
// "../".
func isRelative(pat string) bool {
	return pat == "." || pat == ".." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../")
}

// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// annotations, mirroring the golang.org/x/tools package of the same
// name:
//
//	x := rand.Int() // want `unseeded randomness`
//
// Each annotation holds one or more quoted regular expressions that
// must each match a diagnostic reported on that line; diagnostics
// without a matching annotation fail the test, as do annotations left
// unmatched — so fixture lines without annotations double as negative
// (allowed) cases.
//
// Fixture packages listed in one Run call share a fact store and are
// analyzed in the order given, so a package may consume facts exported
// by an earlier (dependency) package — list dependencies first.
//
// RunWithSuggestedFixes additionally applies every suggested fix the
// analyzer reports and compares each edited fixture file against its
// golden twin <file>.fixed.
package analysistest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rainshine/internal/analysis"
	"rainshine/internal/analysis/load"
)

// wantRe extracts the quoted expectations from a // want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads each fixture package from dir/src and applies a.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, a, false, pkgs...)
}

// RunWithSuggestedFixes is Run plus golden-fix verification: every
// fixture file the analyzer's suggested fixes touch must have a
// <file>.fixed sibling whose content equals the file with all fixes
// applied.
func RunWithSuggestedFixes(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, a, true, pkgs...)
}

func run(t *testing.T, dir string, a *analysis.Analyzer, checkFixes bool, pkgs ...string) {
	t.Helper()
	loader := load.NewLoader("analysistest.invalid", dir)
	loader.FixtureRoot = filepath.Join(dir, "src")
	facts := analysis.NewFactStore()
	for _, pkg := range pkgs {
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		var got []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			TestFiles: load.ParseTestFiles(p.Fset, p.Dir),
			Dir:       p.Dir,
			Facts:     facts,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			got = append(got, d)
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: running %s: %v", pkg, a.Name, err)
		}
		// Fixtures run under the same suppression contract as the real
		// driver: //lint:allow with a reason silences the line.
		allows := analysis.CollectAllows(p.Fset, append(append([]*ast.File(nil), p.Files...), pass.TestFiles...))
		kept := got[:0]
		for _, d := range got {
			if !allows.Allowed(p.Fset, d) {
				kept = append(kept, d)
			}
		}
		got = kept
		check(t, pass, p, a.Name, got)
		if checkFixes {
			checkSuggestedFixes(t, p, got)
		}
	}
}

// expectation is one // want regexp with match bookkeeping.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

type lineKey struct {
	file string
	line int
}

func check(t *testing.T, pass *analysis.Pass, p *load.Package, name string, got []analysis.Diagnostic) {
	t.Helper()
	wants := map[lineKey][]*expectation{}
	for _, f := range p.Files {
		collectWants(t, p.Fset, f, wants)
	}
	for _, f := range pass.TestFiles {
		collectWants(t, p.Fset, f, wants)
	}
	for _, d := range got {
		pos := p.Fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", name, position(pos), d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s:%d matching %q", name, filepath.Base(key.file), key.line, w.raw)
			}
		}
	}
}

// checkSuggestedFixes applies the fixes carried by got and compares
// every edited file against its .fixed golden.
func checkSuggestedFixes(t *testing.T, p *load.Package, got []analysis.Diagnostic) {
	t.Helper()
	fixed, err := analysis.ApplyFixes(p.Fset, got, os.ReadFile)
	if err != nil {
		t.Fatalf("applying suggested fixes: %v", err)
	}
	for name, content := range fixed {
		golden, err := os.ReadFile(name + ".fixed")
		if err != nil {
			t.Errorf("suggested fixes edit %s but no golden: %v", filepath.Base(name), err)
			continue
		}
		if !bytes.Equal(content, golden) {
			t.Errorf("suggested fixes for %s do not match %s.fixed:\n--- got ---\n%s\n--- want ---\n%s",
				filepath.Base(name), filepath.Base(name), content, golden)
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, wants map[lineKey][]*expectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, q := range wantRe.FindAllString(rest, -1) {
				text := q
				if strings.HasPrefix(q, "`") {
					text = strings.Trim(q, "`")
				} else if u, err := strconv.Unquote(q); err == nil {
					text = u
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("bad want regexp %q at %s: %v", text, position(pos), err)
				}
				key := lineKey{pos.Filename, pos.Line}
				wants[key] = append(wants[key], &expectation{re: re, raw: text})
			}
		}
	}
}

func position(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

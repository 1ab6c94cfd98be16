package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and chdirs into it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// TestStandaloneCleanModule: a module with nothing to report exits 0.
func TestStandaloneCleanModule(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":    "module scratch\n\ngo 1.24\n",
		"pkg/ok.go": "package pkg\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	if code := run([]string{"./..."}, io.Discard); code != 0 {
		t.Fatalf("rainshinelint ./... on a clean module = %d, want 0", code)
	}
}

// TestStandaloneLoadErrorIsFatal pins the regression where a package
// that fails to load under ./... was skipped and the run still exited
// 0, masking the breakage from CI.
func TestStandaloneLoadErrorIsFatal(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":        "module scratch\n\ngo 1.24\n",
		"pkg/ok.go":     "package pkg\n\nfunc Add(a, b int) int { return a + b }\n",
		"broken/bad.go": "package broken\n\nfunc f() { return undefinedSymbol }\n",
	})
	if code := run([]string{"./..."}, io.Discard); code == 0 {
		t.Fatal("rainshinelint ./... exited 0 despite a package that fails to typecheck")
	}
}

// TestStandaloneFixIsIdempotent: -fix moves a wall-clock read onto the
// injected clock (clockinject rule A), exits 0, and a second -fix run
// changes nothing.
func TestStandaloneFixIsIdempotent(t *testing.T) {
	const buggy = `package main

import "time"

type svc struct {
	now func() time.Time
}

func (s *svc) stamp() time.Time {
	return time.Now()
}

func main() {
	s := &svc{now: time.Now}
	_ = s.stamp()
}
`
	dir := writeModule(t, map[string]string{
		"go.mod":         "module scratch\n\ngo 1.24\n",
		"cmd/svc/svc.go": buggy,
	})
	target := filepath.Join(dir, "cmd", "svc", "svc.go")

	if code := run([]string{"-fix", "./..."}, io.Discard); code != 0 {
		t.Fatalf("first -fix run = %d, want 0 (the only finding is fixable)", code)
	}
	once, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) == buggy {
		t.Fatal("-fix did not rewrite the wall-clock read")
	}

	if code := run([]string{"-fix", "./..."}, io.Discard); code != 0 {
		t.Fatalf("second -fix run = %d, want 0", code)
	}
	twice, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) != string(twice) {
		t.Errorf("-fix is not idempotent:\nfirst pass:\n%s\nsecond pass:\n%s", once, twice)
	}
}

// TestStandaloneSubtreePatterns: "./<dir>/..." and "<module>/<dir>/..."
// lint every package at or under <dir> and nothing else; a subtree
// pattern that matches no package is an error, not a clean run.
func TestStandaloneSubtreePatterns(t *testing.T) {
	const wallClock = "package %s\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n"
	writeModule(t, map[string]string{
		"go.mod":         "module scratch\n\ngo 1.24\n",
		"svc/ok.go":      "package svc\n\nfunc Add(a, b int) int { return a + b }\n",
		"svc/inner/c.go": fmt.Sprintf(wallClock, "inner"),
		"other/c.go":     fmt.Sprintf(wallClock, "other"),
	})
	for _, pat := range []string{"./svc/...", "scratch/svc/..."} {
		var stderr strings.Builder
		if code := run([]string{pat}, &stderr); code != 1 {
			t.Fatalf("rainshinelint %s = %d, want 1\n%s", pat, code, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, filepath.Join("svc", "inner", "c.go")) || !strings.Contains(out, "[detrand]") {
			t.Errorf("rainshinelint %s missed the finding under svc/inner:\n%s", pat, out)
		}
		if strings.Contains(out, filepath.Join("other", "c.go")) {
			t.Errorf("rainshinelint %s linted a package outside svc/:\n%s", pat, out)
		}
	}
	if code := run([]string{"./svc"}, io.Discard); code != 0 {
		t.Errorf("rainshinelint ./svc = %d, want 0 (svc itself is clean)", code)
	}
	var stderr strings.Builder
	if code := run([]string{"./missing/..."}, &stderr); code != 1 || !strings.Contains(stderr.String(), "matches no package") {
		t.Errorf("rainshinelint ./missing/... = %d, want 1 with \"matches no package\":\n%s", code, stderr.String())
	}
}

// TestStandaloneRejectsUnknownFlags: any flag but -fix is a usage
// error that names the supported form before anything is loaded, so
// the probes `go vet` sends a vet tool (-flags, -V=full) fail instead
// of being read as package patterns.
func TestStandaloneRejectsUnknownFlags(t *testing.T) {
	t.Chdir(t.TempDir()) // no go.mod: loading anything would fail differently
	for _, tc := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-V=full"}, "-V=full"},
		{[]string{"-flags"}, "-flags"},
		{[]string{"-fix", "-x", "./..."}, "-x"},
	} {
		var stderr strings.Builder
		if code := run(tc.args, &stderr); code != 1 {
			t.Errorf("rainshinelint %v = %d, want 1", tc.args, code)
		}
		out := stderr.String()
		if !strings.Contains(out, "unknown flag "+tc.bad+"\n") {
			t.Errorf("rainshinelint %v did not name %s:\n%s", tc.args, tc.bad, out)
		}
		if !strings.Contains(out, "usage: rainshinelint [-fix] [packages]") || strings.Contains(out, "go.mod") {
			t.Errorf("rainshinelint %v: want the usage line and no load attempt, got:\n%s", tc.args, out)
		}
	}
}

// TestStandaloneFactsCrossPackages: a fact exported while analyzing one
// package reaches a pass over a package that imports it. Package a
// sorts before z, the reverse of dependency order, so only the driver's
// dependency-first visit lets goleak see that z.Spin ignores its ctx.
func TestStandaloneFactsCrossPackages(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.24\n",
		"a/a.go": `package a

import (
	"context"

	"scratch/z"
)

func Run(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go z.Spin(ctx)
}
`,
		"z/z.go": "package z\n\nimport \"context\"\n\nfunc Spin(ctx context.Context) {}\n",
	})
	var stderr strings.Builder
	if code := run([]string{"./..."}, &stderr); code != 1 {
		t.Fatalf("rainshinelint ./... = %d, want 1\n%s", code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "a context that Spin ignores") || !strings.Contains(out, "[goleak]") {
		t.Errorf("goleak did not see z's CtxIgnored fact from package a:\n%s", out)
	}
}

// TestStandaloneRelativePatternsFollowWorkingDir: relative patterns
// resolve against the working directory, as the go command's do. From
// svc, "./..." lints svc and svc/inner but not other, "../other/..."
// reaches the sibling, "." is svc alone, and a pattern that climbs out
// of the module is an error.
func TestStandaloneRelativePatternsFollowWorkingDir(t *testing.T) {
	const wallClock = "package %s\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n"
	dir := writeModule(t, map[string]string{
		"go.mod":         "module scratch\n\ngo 1.24\n",
		"svc/ok.go":      "package svc\n\nfunc Add(a, b int) int { return a + b }\n",
		"svc/inner/c.go": fmt.Sprintf(wallClock, "inner"),
		"other/c.go":     fmt.Sprintf(wallClock, "other"),
	})
	t.Chdir(filepath.Join(dir, "svc"))
	for _, c := range []struct {
		pat          string
		code         int
		inner, other bool
	}{
		{"./...", 1, true, false},
		{"./inner", 1, true, false},
		{"../other/...", 1, false, true},
	} {
		var stderr strings.Builder
		if code := run([]string{c.pat}, &stderr); code != c.code {
			t.Fatalf("rainshinelint %s from svc = %d, want %d\n%s", c.pat, code, c.code, stderr.String())
		}
		out := stderr.String()
		if got := strings.Contains(out, filepath.Join("svc", "inner", "c.go")); got != c.inner {
			t.Errorf("rainshinelint %s from svc: finding under svc/inner reported = %v, want %v\n%s", c.pat, got, c.inner, out)
		}
		if got := strings.Contains(out, filepath.Join("other", "c.go")); got != c.other {
			t.Errorf("rainshinelint %s from svc: finding under other reported = %v, want %v\n%s", c.pat, got, c.other, out)
		}
	}
	if code := run([]string{"."}, io.Discard); code != 0 {
		t.Errorf("rainshinelint . from svc = %d, want 0 (svc itself is clean)", code)
	}
	if code := run(nil, io.Discard); code != 1 {
		t.Errorf("rainshinelint with no patterns from svc = %d, want 1 (./... covers svc/inner)", code)
	}
	var stderr strings.Builder
	if code := run([]string{"../../..."}, &stderr); code != 1 || !strings.Contains(stderr.String(), "outside module") {
		t.Errorf("rainshinelint ../../... = %d, want 1 with \"outside module\":\n%s", code, stderr.String())
	}
}

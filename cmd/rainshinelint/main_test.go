package main

import (
	"os"
	"path/filepath"
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
	if code := standalone([]string{"./..."}, false); code != 0 {
		t.Fatalf("standalone on a clean module = %d, want 0", code)
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
	if code := standalone([]string{"./..."}, false); code == 0 {
		t.Fatal("standalone exited 0 despite a package that fails to typecheck")
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

	if code := standalone([]string{"./..."}, true); code != 0 {
		t.Fatalf("first -fix run = %d, want 0 (the only finding is fixable)", code)
	}
	once, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) == buggy {
		t.Fatal("-fix did not rewrite the wall-clock read")
	}

	if code := standalone([]string{"./..."}, true); code != 0 {
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

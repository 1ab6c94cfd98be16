package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// binnedFig18 names the only lines where the default `rainshine all`
// differs from docs/paper_run_seed42.txt (written by `-exact all`):
// Fig 18's DC1 regime rows. At paper scale the stage-2 environment
// tree goes binned and splits temperature at the bin edge 78.016 °F
// instead of the exact midpoint 78.038 °F, so 86 DC1 rack-days change
// regime; both thresholds print as 78.0 (ROADMAP, Fig 18 drift).
var binnedFig18 = []struct{ exact, binned string }{
	{"DC1  T<=78.0F         0.44             182308", "DC1  T<=78.0F         0.45             182222"},
	{"DC1  T>78.0F          0.80             40764 ", "DC1  T>78.0F          0.80             40850 "},
	{"DC1  T>78.0+RH<=24.5  1.00             7783  ", "DC1  T>78.0+RH<=24.5  1.00             7802  "},
}

// TestPaperGolden pins the seed-42 paper outputs to the committed docs:
// `-exact all` and the extensions (ablate, pooling, opex, predict,
// joined by blank lines) byte for byte, and the default `all` up to the
// binnedFig18 lines. A PR that changes outputs on purpose regenerates
// the docs with `make golden` and says why in CHANGES.md.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs; skipped under -short")
	}
	if raceEnabled {
		t.Skip("paper-scale runs; the determinism tests cover the parallel paths under -race")
	}
	paper := readDoc(t, "paper_run_seed42.txt")
	compareGolden(t, "-exact all", paper, runStdout(t, "-exact", "all"))

	want := paper
	for _, l := range binnedFig18 {
		if n := strings.Count(want, "\n"+l.exact+"\n"); n != 1 {
			t.Fatalf("docs/paper_run_seed42.txt holds %q %d times, want once", l.exact, n)
		}
		want = strings.Replace(want, "\n"+l.exact+"\n", "\n"+l.binned+"\n", 1)
	}
	compareGolden(t, "all", want, runStdout(t, "all"))

	var ext []string
	for _, cmd := range []string{"ablate", "pooling", "opex", "predict"} {
		ext = append(ext, runStdout(t, cmd))
	}
	compareGolden(t, "extensions", readDoc(t, "extensions_seed42.txt"), strings.Join(ext, "\n"))
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runStdout runs the CLI on args and returns what it wrote to stdout.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = old
	if runErr != nil {
		t.Fatalf("rainshine %s: %v", strings.Join(args, " "), runErr)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compareGolden reports got != want as the differing block of lines
// between their common prefix and suffix.
func compareGolden(t *testing.T, name, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	pre := 0
	for pre < len(w) && pre < len(g) && w[pre] == g[pre] {
		pre++
	}
	suf := 0
	for suf < len(w)-pre && suf < len(g)-pre && w[len(w)-1-suf] == g[len(g)-1-suf] {
		suf++
	}
	var b strings.Builder
	const maxLines = 20
	for i, l := range w[pre : len(w)-suf] {
		if i == maxLines {
			b.WriteString("-...\n")
			break
		}
		fmt.Fprintf(&b, "-%s\n", l)
	}
	for i, l := range g[pre : len(g)-suf] {
		if i == maxLines {
			b.WriteString("+...\n")
			break
		}
		fmt.Fprintf(&b, "+%s\n", l)
	}
	t.Errorf("%s differs from the golden from line %d (-want +got):\n%s", name, pre+1, b.String())
}

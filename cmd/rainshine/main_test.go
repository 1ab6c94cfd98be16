package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rainshine"
)

var cachedStudy *rainshine.Study

// tinyStudy builds a very small fleet once for renderer tests.
func tinyStudy(t *testing.T) *rainshine.Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	s, err := rainshine.NewStudy(
		rainshine.WithSeed(42),
		rainshine.WithDays(180),
		rainshine.WithRacks(40, 35),
	)
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = s
	return s
}

func render(t *testing.T, f func(r *renderer) error) string {
	t.Helper()
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := f(r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSummaryRenders(t *testing.T) {
	out := render(t, (*renderer).summary)
	for _, want := range []string{"Fleet:", "Software", "Hardware"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestTablesRender(t *testing.T) {
	for _, tbl := range []string{"1", "2", "3", "4"} {
		out := render(t, func(r *renderer) error { return r.table(tbl) })
		if len(out) < 50 {
			t.Errorf("table %s output too short:\n%s", tbl, out)
		}
	}
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := r.table("9"); err == nil {
		t.Error("unknown table should error")
	}
}

func TestFiguresRender(t *testing.T) {
	for n := 1; n <= 18; n++ {
		out := render(t, func(r *renderer) error { return r.figure(n) })
		if len(out) < 30 {
			t.Errorf("figure %d output too short:\n%s", n, out)
		}
	}
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := r.figure(99); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestAnalysesRender(t *testing.T) {
	out := render(t, func(r *renderer) error { return r.q1(rainshine.W6, false) })
	if !strings.Contains(out, "Q1") || !strings.Contains(out, "MF clusters") {
		t.Errorf("q1 output:\n%s", out)
	}
	out = render(t, (*renderer).q2)
	if !strings.Contains(out, "S2:S4") {
		t.Errorf("q2 output:\n%s", out)
	}
	out = render(t, (*renderer).q3)
	if !strings.Contains(out, "thresholds") {
		t.Errorf("q3 output:\n%s", out)
	}
	out = render(t, (*renderer).predict)
	if !strings.Contains(out, "precision") {
		t.Errorf("predict output:\n%s", out)
	}
	out = render(t, (*renderer).ablate)
	if !strings.Contains(out, "Gap closed") {
		t.Errorf("ablate output:\n%s", out)
	}
	out = render(t, (*renderer).tree)
	if !strings.Contains(out, "CART") {
		t.Errorf("tree output:\n%s", out)
	}
}

func TestExportRenders(t *testing.T) {
	out := render(t, func(r *renderer) error { return r.export("tickets") })
	if !strings.HasPrefix(out, "id,date,day,hour") {
		t.Errorf("tickets export header:\n%.100s", out)
	}
	out = render(t, func(r *renderer) error { return r.export("events") })
	if !strings.Contains(out, `"component"`) {
		t.Errorf("events export:\n%.100s", out)
	}
	out = render(t, func(r *renderer) error { return r.export("rackdays") })
	if !strings.Contains(out, "temp,rh") {
		t.Errorf("rackdays export header:\n%.100s", out)
	}
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := r.export("nope"); err == nil {
		t.Error("unknown export target should error")
	}
}

func TestParseWorkload(t *testing.T) {
	w, err := parseWorkload("w3")
	if err != nil || w != rainshine.W3 {
		t.Errorf("parseWorkload = %v, %v", w, err)
	}
	if _, err := parseWorkload("W9"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestRunArgErrors(t *testing.T) {
	// Post-study error cases carry a tiny-fleet prefix so the test does
	// not pay for a full-scale simulation just to hit an arg error.
	tiny := []string{"-racks", "8,8", "-days", "45"}
	withTiny := func(args ...string) []string { return append(append([]string{}, tiny...), args...) }
	cases := [][]string{
		{},                         // missing command
		{"-racks", "1", "summary"}, // malformed racks (pre-study)
		{"-racks", "a,b", "summary"},
		{"-racks", "1,b", "summary"},
		{"-racks", "0,10", "summary"},  // zero rack count rejected
		{"-racks", "10,-5", "summary"}, // negative rack count rejected
		{"climate-csv"},                // missing CSV path (pre-study)
		withTiny("bogus"),              // unknown command
		withTiny("table"),              // missing table number
		withTiny("fig"),                // missing figure number
		withTiny("fig", "abc"),         // bad figure number
		withTiny("export"),             // missing export target
		withTiny("q1", "nope"),         // bad workload
		{"-bins", "1", "summary"},      // bin budget below 2 (pre-study)
		{"-bins", "256", "summary"},    // bin budget past the byte range
		{"-bins", "-3", "summary"},     // negative bin budget
		{"-cpuprofile", "/nonexistent-dir/cpu.out", "summary"}, // unwritable profile path (pre-study)
		{"-racks", "1000000,1000000", "summary"},               // over the rack-day budget (pre-study)
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

// TestStudyFlags pins how -small, -days and -racks combine: an explicit
// -days or -racks overrides its half of -small, and a -days below 1 is
// rejected at flag parse instead of running the paper window (0) or
// failing inside the simulation (negative).
func TestStudyFlags(t *testing.T) {
	for _, c := range []struct {
		args        []string
		racks, days string
	}{
		{[]string{"-small", "-days", "100", "summary"}, "220", "100"},
		{[]string{"-small", "-days", "30", "-racks", "3,2", "summary"}, "5", "30"},
	} {
		out := runStdout(t, c.args...)
		if !strings.Contains(out, "Fleet: "+c.racks+" racks") || !strings.Contains(out, "over "+c.days+" days") {
			t.Errorf("rainshine %s: want %s racks over %s days, got:\n%s", strings.Join(c.args, " "), c.racks, c.days, out)
		}
	}
	for _, days := range []string{"0", "-5"} {
		err := run([]string{"-days", days, "summary"})
		if err == nil || !strings.Contains(err.Error(), "-days must be at least 1") {
			t.Errorf("-days %s: err = %v, want the flag-parse rejection", days, err)
		}
	}
}

// TestProfileFlagsWriteFiles runs a tiny study with both profile flags
// and checks that non-empty pprof files land where asked.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{"-racks", "8,8", "-days", "45", "-cpuprofile", cpu, "-memprofile", mem, "summary"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestParseServeFlags(t *testing.T) {
	cfg, err := parseServeFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.cache != 4 || cfg.timeout != 5*time.Minute {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.buildTimeout != 10*time.Minute || cfg.maxConcurrent != 256 || cfg.maxQueue != 512 ||
		cfg.q3Concurrent != 32 || cfg.q3Queue != 64 || cfg.rps != 0 ||
		cfg.breakerThreshold != 5 || cfg.breakerCooldown != 30*time.Second || cfg.chaos {
		t.Errorf("resilience defaults = %+v", cfg)
	}
	cfg, err = parseServeFlags([]string{"-addr", "127.0.0.1:9090", "-cache", "2", "-timeout", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:9090" || cfg.cache != 2 || cfg.timeout != 30*time.Second {
		t.Errorf("parsed = %+v", cfg)
	}
	// -cache-size is the backward-compatible alias for -cache.
	if cfg, err = parseServeFlags([]string{"-cache-size", "3"}); err != nil || cfg.cache != 3 {
		t.Errorf("-cache-size alias: cfg=%+v err=%v", cfg, err)
	}
	cfg, err = parseServeFlags([]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"})
	if err != nil || cfg.cpuprofile != "cpu.out" || cfg.memprofile != "mem.out" {
		t.Errorf("profile flags: cfg=%+v err=%v", cfg, err)
	}
	cfg, err = parseServeFlags([]string{
		"-build-timeout", "2m", "-max-concurrent", "64", "-max-queue", "0",
		"-q3-concurrent", "4", "-q3-queue", "8", "-rps", "100", "-burst", "50",
		"-breaker-threshold", "0", "-breaker-cooldown", "5s",
		"-chaos", "-chaos-seed", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.buildTimeout != 2*time.Minute || cfg.maxConcurrent != 64 || cfg.maxQueue != 0 ||
		cfg.q3Concurrent != 4 || cfg.q3Queue != 8 || cfg.rps != 100 || cfg.burst != 50 ||
		cfg.breakerThreshold != 0 || cfg.breakerCooldown != 5*time.Second ||
		!cfg.chaos || cfg.chaosSeed != 7 {
		t.Errorf("resilience flags = %+v", cfg)
	}
	// "0" flag spellings translate to the server's explicit-disable
	// spelling (negative), never to "use the default".
	sc := cfg.serverConfig()
	if sc.Resilience.MaxQueue != -1 || sc.Resilience.BreakerThreshold != -1 {
		t.Errorf("serverConfig zero translation = %+v", sc.Resilience)
	}
	if sc.Chaos == nil || sc.Chaos.Seed != 7 || !sc.Chaos.Enabled() {
		t.Errorf("serverConfig chaos = %+v", sc.Chaos)
	}
	if sc := mustParseServe(t, nil).serverConfig(); sc.Chaos != nil {
		t.Errorf("chaos config without -chaos: %+v", sc.Chaos)
	}
	bad := [][]string{
		{"-cache", "0"},
		{"-cache-size", "-3"},
		{"-timeout", "0s"},
		{"-timeout", "-1m"},
		{"-addr", ""},
		{"-bogus"},
		{"surplus", "args"},
		{"-build-timeout", "0s"},
		{"-max-concurrent", "0"},
		{"-q3-concurrent", "-1"},
		{"-max-queue", "-1"},
		{"-q3-queue", "-2"},
		{"-rps", "-5"},
		{"-burst", "-1"},
		{"-burst", "10"},     // burst without rps
		{"-chaos-seed", "9"}, // chaos-seed without chaos
		{"-breaker-cooldown", "0s"},
	}
	for _, args := range bad {
		if _, err := parseServeFlags(args); err == nil {
			t.Errorf("parseServeFlags(%v) should error", args)
		}
	}
}

func mustParseServe(t *testing.T, args []string) serveConfig {
	t.Helper()
	cfg, err := parseServeFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunDispatchesServeFlagErrors(t *testing.T) {
	// Bad serve flags must surface through run() without ever binding a
	// port (parseServeFlags rejects them before the listener exists).
	for _, args := range [][]string{
		{"serve", "-cache-size", "0"},
		{"serve", "-timeout", "-5s"},
		{"serve", "-no-such-flag"},
		{"serve", "positional"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

func TestPoolingAndOpexRender(t *testing.T) {
	out := render(t, func(r *renderer) error { return r.pooling(false) })
	if !strings.Contains(out, "per-rack") || !strings.Contains(out, "global") {
		t.Errorf("pooling output:\n%s", out)
	}
	out = render(t, (*renderer).opex)
	if !strings.Contains(out, "disk") || !strings.Contains(out, "Cheaper policy") {
		t.Errorf("opex output:\n%s", out)
	}
}

func TestClimateCSVCommand(t *testing.T) {
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := r.export("rackdays"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/rackdays.csv"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := analyzeClimateCSV(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "temperature knee") {
		t.Errorf("output:\n%s", out.String())
	}
	if err := analyzeClimateCSV(dir+"/missing.csv", &out); err == nil {
		t.Error("missing file should error")
	}
}

func TestAllRenders(t *testing.T) {
	var buf bytes.Buffer
	r := &renderer{study: tinyStudy(t), out: &buf}
	if err := r.all(false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== Table 4 ==", "== Figure 18 ==", "Q1:", "Q2:", "Q3:"} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

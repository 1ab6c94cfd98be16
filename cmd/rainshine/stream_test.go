package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rainshine"
)

// TestStreamWriteAndReplay writes a tiny study's stream log through the
// CLI, replays it from its path and from stdin, and checks that both
// replays print the same study envelope.
func TestStreamWriteAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.log")
	tiny := []string{"-seed", "9", "-days", "30", "-racks", "3,2", "-workers", "1"}
	withTiny := func(args ...string) []string { return append(append([]string{}, tiny...), args...) }
	if err := run(withTiny("stream", path)); err != nil {
		t.Fatalf("stream write: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("stream log not written: %v", err)
	}

	// Replay prints the canonical envelope on stdout.
	body := runStdout(t, withTiny("stream", "replay", path)...)
	for _, want := range []string{`"seed":9`, `"days":30`, `"quality"`, `"tree_leaves"`} {
		if !strings.Contains(body, want) {
			t.Errorf("envelope missing %s:\n%s", want, body)
		}
	}

	// "-" reads the same log from stdin.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = old }()
	if got := runStdout(t, withTiny("stream", "replay", "-")...); got != body {
		t.Errorf("replay from stdin printed\n%s\nwant (replay from the path)\n%s", got, body)
	}
}

func TestStreamArgErrors(t *testing.T) {
	cases := [][]string{
		{"stream"},                       // missing path
		{"stream", "a", "b"},             // replay misspelled
		{"stream", "replay"},             // missing replay path
		{"stream", "replay", "a", "b"},   // extra arg
		{"stream", "replay", "/no/such"}, // unreadable log
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

func TestParseServeFollowFlags(t *testing.T) {
	// Follow sub-flags without -follow are rejected.
	for _, args := range [][]string{
		{"-follow-seed", "7"},
		{"-follow-days", "100"},
		{"-follow-racks", "3,2"},
		{"-follow-faults"},
		{"-follow-lateness", "2"},
		{"-follow", "x.log", "-follow-days", "0"},
		{"-follow", "x.log", "-follow-racks", "1"},
	} {
		if _, err := parseServeFlags(args); err == nil {
			t.Errorf("parseServeFlags(%v) should error", args)
		}
	}

	cfg, err := parseServeFlags([]string{
		"-follow", "study.log", "-follow-seed", "7", "-follow-days", "120",
		"-follow-racks", "6,4", "-follow-faults", "-follow-lateness", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.serverConfig()
	if sc.Follow == nil {
		t.Fatal("serverConfig dropped the follow config")
	}
	if sc.Follow.Path != "study.log" || sc.Follow.Lateness != 2 {
		t.Fatalf("follow config = %+v", sc.Follow)
	}
	st := sc.Follow.Study
	if st.Seed != 7 || st.Days != 120 || st.Racks != [2]int{6, 4} || !st.Faults {
		t.Fatalf("follow study = %+v", st)
	}

	// The followed study gets the rack-day budget -racks gets, before the
	// follower would allocate its shell.
	for _, args := range [][]string{
		{"-follow", "x.log", "-follow-racks", "1000000,1000000"},
		{"-follow", "x.log", "-follow-days", "1000000"},
	} {
		var sizeErr *rainshine.StudySizeError
		if _, err := parseServeFlags(args); !errors.As(err, &sizeErr) {
			t.Errorf("parseServeFlags(%v) = %v, want a StudySizeError", args, err)
		}
	}
	if _, err := parseServeFlags([]string{"-follow", "study.log", "-follow-days", "365", "-follow-racks", "120,100"}); err != nil {
		t.Errorf("README's follow example rejected: %v", err)
	}

	// No -follow: no follower attached.
	cfg, err = parseServeFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.serverConfig().Follow != nil {
		t.Fatal("follower attached without -follow")
	}
}

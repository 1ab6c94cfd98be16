package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"rainshine/internal/cart"
	"rainshine/internal/faults"
	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

// dumpLiveTree renders every node in preorder with its floats as raw
// bits, then Importance() in feature-name order.
func dumpLiveTree(b *strings.Builder, t *cart.Tree) {
	var walk func(n *cart.Node, path string)
	walk = func(n *cart.Node, path string) {
		fmt.Fprintf(b, "%s N=%d F=%d T=%016x S=%x D=%t V=%016x I=%016x L=%d\n",
			path, n.N, n.Feature, math.Float64bits(n.Threshold), n.LeftSet, n.DefaultLeft,
			math.Float64bits(n.Value), math.Float64bits(n.Impurity), n.LeafID)
		if !n.IsLeaf() {
			walk(n.Left, path+"L")
			walk(n.Right, path+"R")
		}
	}
	walk(t.Root, "^")
	imp := t.Importance()
	for _, name := range slices.Sorted(maps.Keys(imp)) {
		fmt.Fprintf(b, "importance %s %016x\n", name, math.Float64bits(imp[name]))
	}
}

// liveModelDigest replays cfg's study log record by record and hashes
// the live tree, the watermark and the outcome after every refit. It
// also returns how many refits ended in each outcome.
func liveModelDigest(t *testing.T, cfg simulate.Config) (string, map[string]int) {
	t.Helper()
	ctx := context.Background()
	res, err := simulate.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStudyLog(&buf, res); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(Config{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	outcomes := map[string]int{}
	var refits int64
	// observe dumps the live tree if a refit ran since the last call.
	observe := func() {
		st := m.Stats()
		switch st.Refits {
		case refits:
			return
		case refits + 1:
		default:
			t.Fatalf("%d refits between two observations", st.Refits-refits)
		}
		refits = st.Refits
		outcomes[st.LastRefit]++
		fmt.Fprintf(&dump, "refit %d watermark=%d outcome=%s\n", refits, st.Watermark, st.LastRefit)
		dumpLiveTree(&dump, m.LiveTree())
	}
	for !m.Sealed() {
		rec, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == KindSeal {
			// The seal closes every open day at once; close them one
			// at a time so each refit is observed.
			for m.closed < m.days {
				if err := m.closeThrough(ctx, m.closed+1); err != nil {
					t.Fatal(err)
				}
				observe()
			}
		}
		if err := m.Apply(ctx, &rec); err != nil {
			t.Fatal(err)
		}
		observe()
	}
	sum := sha256.Sum256([]byte(dump.String()))
	return hex.EncodeToString(sum[:]), outcomes
}

// TestLiveModelGolden pins the live tree bit for bit after every refit
// of two replays: perfbench's stream_replay log shape (clean) and the
// dirty replay test's study. The maintained presorted orders are the
// unique (value, row) orders, so however the refitter batches its
// merges, no bit of any live tree may move. Between them, the two
// studies reach all four refit outcomes.
func TestLiveModelGolden(t *testing.T) {
	fc := faults.Defaults()
	for _, tc := range []struct {
		name     string
		cfg      simulate.Config
		digest   string
		outcomes map[string]int
	}{
		{
			name: "seed1028-clean",
			cfg: simulate.Config{
				Seed:     1028,
				Days:     365,
				Topology: topology.Config{RacksPerDC: [2]int{90, 70}},
				Workers:  2,
			},
			digest:   "7e2e6301954f9f67299fdb9a2de3676c9532536dd80d029b70c5e54d35740671",
			outcomes: map[string]int{"initial": 1, "stats": 33, "subtrees": 1, "full": 18},
		},
		{
			name: "seed22-dirty",
			cfg: simulate.Config{
				Seed:     22,
				Days:     300,
				Topology: topology.Config{RacksPerDC: [2]int{20, 16}},
				Workers:  2,
				Faults:   &fc,
			},
			digest:   "50eabf876ba4a44a67d1d419e8cc55e1265b029a7b82fade89d1b5b63e038193",
			outcomes: map[string]int{"initial": 1, "stats": 10, "subtrees": 22, "full": 10},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digest, outcomes := liveModelDigest(t, tc.cfg)
			if digest != tc.digest {
				t.Errorf("live-model digest %s, want %s", digest, tc.digest)
			}
			if fmt.Sprint(outcomes) != fmt.Sprint(tc.outcomes) {
				t.Errorf("refit outcomes %v, want %v", outcomes, tc.outcomes)
			}
		})
	}
}

// TestRefitOutcomeCounts replays the seed-1028 log record by record,
// the seal included, and reads the per-outcome refit counts: they match
// TestLiveModelGolden's tally of the same replay and sum to Refits. The
// seal runs two refits in one Apply, so a per-Apply tally of LastRefit
// sees one outcome fewer than the counts do.
func TestRefitOutcomeCounts(t *testing.T) {
	ctx := context.Background()
	cfg := simulate.Config{
		Seed:     1028,
		Days:     365,
		Topology: topology.Config{RacksPerDC: [2]int{90, 70}},
		Workers:  2,
	}
	res, err := simulate.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStudyLog(&buf, res); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(Config{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var refits, lastRefitTally int64
	for !m.Sealed() {
		rec, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Apply(ctx, &rec); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Refits != refits {
			refits = st.Refits
			lastRefitTally++
		}
	}
	st := m.Stats()
	want := RefitCounts{Initial: 1, Stats: 33, Subtrees: 1, Full: 18}
	if st.RefitOutcomes != want {
		t.Errorf("refit outcomes %+v, want %+v", st.RefitOutcomes, want)
	}
	oc := st.RefitOutcomes
	if sum := oc.Initial + oc.Stats + oc.Subtrees + oc.Full; sum != st.Refits || st.Refits != 53 {
		t.Errorf("refit outcomes sum to %d, Refits = %d, want both 53", sum, st.Refits)
	}
	if lastRefitTally != 52 {
		t.Errorf("per-Apply LastRefit tally = %d, want 52 (one Apply runs two refits)", lastRefitTally)
	}
}

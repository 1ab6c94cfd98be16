package stream_test

import (
	"bytes"
	"context"
	"testing"

	"rainshine/internal/faults"
	"rainshine/internal/ingest"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
	"rainshine/internal/topology"
)

func chaosStudyRecords(t *testing.T) (simulate.Config, []stream.Record) {
	t.Helper()
	cfg := simulate.Config{
		Seed:     31,
		Days:     120,
		Topology: topology.Config{RacksPerDC: [2]int{8, 6}},
		Workers:  1,
	}
	res, err := simulate.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := stream.Records(res)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, recs
}

// logBytes renders a record sequence to its log encoding, the cheapest
// way to compare sequences including NaN payloads exactly.
func logBytes(t *testing.T, recs []stream.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replayRecords(t *testing.T, cfg simulate.Config, recs []stream.Record) *stream.Maintainer {
	t.Helper()
	ctx := context.Background()
	m, err := stream.NewMaintainer(stream.Config{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := m.Apply(ctx, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestChaosCorruptRecordsDeterministic: the perturbation is a pure
// function of the chaos seed and the sequence — two corruptions of the
// same log are byte-identical.
func TestChaosCorruptRecordsDeterministic(t *testing.T) {
	_, recs := chaosStudyRecords(t)
	cfg := faults.ChaosConfig{Seed: 7, StreamReorderRate: 0.2,
		StreamDuplicateRate: 0.1, StreamLateRate: 0.05}
	a := stream.CorruptRecords(recs, faults.NewChaos(cfg))
	b := stream.CorruptRecords(recs, faults.NewChaos(cfg))
	if !bytes.Equal(logBytes(t, a), logBytes(t, b)) {
		t.Fatal("chaos perturbation is not deterministic")
	}
	if len(a) <= len(recs) {
		t.Fatalf("no duplicates injected: %d -> %d records", len(recs), len(a))
	}
}

// TestChaosReorderPreservesByteIdentity: out-of-order delivery within
// the lateness slack loses nothing — the finalized study is
// byte-identical to the one replayed from the canonical order.
func TestChaosReorderPreservesByteIdentity(t *testing.T) {
	simCfg, recs := chaosStudyRecords(t)
	perturbed := stream.CorruptRecords(recs,
		faults.NewChaos(faults.ChaosConfig{Seed: 7, StreamReorderRate: 0.25}))

	ctx := context.Background()
	base := replayRecords(t, simCfg, recs)
	reord := replayRecords(t, simCfg, perturbed)
	if s := reord.Stats(); s.Late != 0 || s.Duplicates != 0 {
		t.Fatalf("reorder-only stream quarantined records: %+v", s)
	}
	dBase, err := base.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dReord, err := reord.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	envBase, err := stream.EnvelopeJSON(ctx, dBase)
	if err != nil {
		t.Fatal(err)
	}
	envReord, err := stream.EnvelopeJSON(ctx, dReord)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(envBase, envReord) {
		t.Fatalf("reordered replay diverged:\nbase:    %s\nreorder: %s", envBase, envReord)
	}
}

// TestChaosLateAndDuplicateQuarantine: late and duplicated deliveries
// are quarantined under the stream defect classes, deterministically.
func TestChaosLateAndDuplicateQuarantine(t *testing.T) {
	simCfg, recs := chaosStudyRecords(t)
	perturbed := stream.CorruptRecords(recs,
		faults.NewChaos(faults.ChaosConfig{Seed: 11,
			StreamDuplicateRate: 0.08, StreamLateRate: 0.04}))
	m := replayRecords(t, simCfg, perturbed)
	s := m.Stats()
	if s.Duplicates == 0 {
		t.Fatal("no duplicate deliveries quarantined")
	}
	if s.Late == 0 {
		t.Fatal("no late deliveries quarantined")
	}
	q := m.Quality()
	if int64(q.Quarantined[ingest.DuplicateEvent]) != s.Duplicates {
		t.Fatalf("duplicate accounting: stats %d, quality %d",
			s.Duplicates, q.Quarantined[ingest.DuplicateEvent])
	}
	if int64(q.Quarantined[ingest.LateArrival]) != s.Late {
		t.Fatalf("late accounting: stats %d, quality %d",
			s.Late, q.Quarantined[ingest.LateArrival])
	}
	// The replayed study still finalizes (late data lost, not fatal).
	if _, err := m.Finalize(context.Background()); err != nil {
		t.Fatal(err)
	}

	// And the quarantine counts are a pure function of the chaos seed.
	m2 := replayRecords(t, simCfg, stream.CorruptRecords(recs,
		faults.NewChaos(faults.ChaosConfig{Seed: 11,
			StreamDuplicateRate: 0.08, StreamLateRate: 0.04})))
	s2 := m2.Stats()
	if s2.Late != s.Late || s2.Duplicates != s.Duplicates {
		t.Fatalf("quarantine counts not deterministic: %+v vs %+v", s, s2)
	}
}

package stream_test

import (
	"bytes"
	"context"
	"testing"

	"rainshine"
	"rainshine/internal/faults"
	"rainshine/internal/ingest"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
	"rainshine/internal/topology"
)

// replayEnvelope streams a freshly simulated study through a log and a
// maintainer and returns the finalized study's canonical envelope.
func replayEnvelope(t *testing.T, ctx context.Context, cfg simulate.Config) []byte {
	t.Helper()
	res, err := simulate.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stream.WriteStudyLog(&buf, res); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := stream.Replay(ctx, rd, stream.Config{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Sealed() {
		t.Fatal("replay did not reach the seal")
	}
	d, err := m.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	env, err := stream.EnvelopeJSON(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// batchEnvelope builds the same study through the public batch facade.
func batchEnvelope(t *testing.T, ctx context.Context, opts ...rainshine.Option) []byte {
	t.Helper()
	s, err := rainshine.NewStudyContext(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	env, err := stream.EnvelopeJSON(ctx, s.Figures())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestStreamReplayByteIdenticalClean is the acceptance bar of the
// streaming layer: a seeded study streamed record by record from its
// log, closed by the watermark, and finalized must produce exactly the
// bytes the batch pipeline produces — not approximately, byte for byte.
func TestStreamReplayByteIdenticalClean(t *testing.T) {
	ctx := context.Background()
	cfg := simulate.Config{
		Seed:     21,
		Days:     360,
		Topology: topology.Config{RacksPerDC: [2]int{24, 20}},
		Workers:  2,
	}
	streamed := replayEnvelope(t, ctx, cfg)
	batch := batchEnvelope(t, ctx,
		rainshine.WithSeed(21), rainshine.WithDays(360),
		rainshine.WithRacks(24, 20), rainshine.WithWorkers(2))
	if !bytes.Equal(streamed, batch) {
		t.Fatalf("streamed study != batch study:\nstream: %s\nbatch:  %s", streamed, batch)
	}
}

// TestStreamReplayByteIdenticalDirty repeats the bar in dirty-data
// mode: NaN sensor readings, duplicate tickets, and clock-skewed
// out-of-window tickets all round-trip through the log, and the
// finalized scrub quarantines exactly what the batch scrub does.
func TestStreamReplayByteIdenticalDirty(t *testing.T) {
	ctx := context.Background()
	fc := faults.Defaults()
	cfg := simulate.Config{
		Seed:     22,
		Days:     300,
		Topology: topology.Config{RacksPerDC: [2]int{20, 16}},
		Workers:  2,
		Faults:   &fc,
	}
	streamed := replayEnvelope(t, ctx, cfg)
	batch := batchEnvelope(t, ctx,
		rainshine.WithSeed(22), rainshine.WithDays(300),
		rainshine.WithRacks(20, 16), rainshine.WithWorkers(2),
		rainshine.WithFaults(rainshine.DefaultFaults()))
	if !bytes.Equal(streamed, batch) {
		t.Fatalf("dirty streamed study != batch study:\nstream: %s\nbatch:  %s", streamed, batch)
	}
}

// smallMaintainer builds a maintainer over a tiny fleet for watermark
// semantics tests.
func smallMaintainer(t *testing.T, lateness int) *stream.Maintainer {
	t.Helper()
	m, err := stream.NewMaintainer(stream.Config{
		Sim: simulate.Config{
			Seed:     5,
			Days:     60,
			Topology: topology.Config{RacksPerDC: [2]int{4, 3}},
			Workers:  1,
		},
		Lateness: lateness,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func climateRec(rack, day int32) *stream.Record {
	return &stream.Record{Kind: stream.KindClimate, Rack: rack, Day: day, TempF: 70, RH: 40}
}

func TestMaintainerWatermarkAdvance(t *testing.T) {
	m := smallMaintainer(t, 1)
	ctx := context.Background()
	for d := int32(0); d <= 5; d++ {
		if err := m.Apply(ctx, climateRec(0, d)); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	// Day 5 is the newest observation; with one day of lateness slack,
	// days 0-3 have closed and days 4-5 are still open.
	if s.Watermark != 4 {
		t.Fatalf("watermark = %d, want 4", s.Watermark)
	}
	if s.MaxDaySeen != 5 || s.Lag != 2 {
		t.Fatalf("maxDaySeen/lag = %d/%d, want 5/2", s.MaxDaySeen, s.Lag)
	}
	if s.Late != 0 || s.Duplicates != 0 || s.Sealed {
		t.Fatalf("unexpected quarantines or seal: %+v", s)
	}
}

func TestMaintainerLateArrival(t *testing.T) {
	m := smallMaintainer(t, -1) // negative = no slack: strictly ordered stream
	ctx := context.Background()
	if err := m.Apply(ctx, climateRec(0, 10)); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Watermark; got != 10 {
		t.Fatalf("watermark = %d, want 10", got)
	}
	// A day-3 event arrives after day 3 closed: quarantined, not an error.
	rec := &stream.Record{Kind: stream.KindEvent, Seq: 1}
	rec.Event.Rack, rec.Event.Day = 0, 3
	if err := m.Apply(ctx, rec); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Late != 1 {
		t.Fatalf("late = %d, want 1", s.Late)
	}
	if got := m.Quality().Quarantined[ingest.LateArrival]; got != 1 {
		t.Fatalf("LateArrival quarantine = %d, want 1", got)
	}
}

func TestMaintainerDuplicate(t *testing.T) {
	m := smallMaintainer(t, 1)
	ctx := context.Background()
	rec := &stream.Record{Kind: stream.KindEvent, Seq: 7}
	rec.Event.Rack, rec.Event.Day = 1, 2
	if err := m.Apply(ctx, rec); err != nil {
		t.Fatal(err)
	}
	dup := *rec
	if err := m.Apply(ctx, &dup); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", s.Duplicates)
	}
	if got := m.Quality().Quarantined[ingest.DuplicateEvent]; got != 1 {
		t.Fatalf("DuplicateEvent quarantine = %d, want 1", got)
	}
}

func TestMaintainerRejectsImpossibleRecords(t *testing.T) {
	m := smallMaintainer(t, 1)
	ctx := context.Background()
	if err := m.Apply(ctx, climateRec(9999, 0)); err == nil {
		t.Fatal("out-of-fleet rack accepted")
	}
	if err := m.Apply(ctx, &stream.Record{Kind: stream.Kind(42)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

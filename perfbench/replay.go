package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"rainshine"
	"rainshine/internal/figures"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
	"rainshine/internal/topology"
)

// Each replayed study: about 90k records, 52 weekly refits.
const streamDays, streamDC1, streamDC2 = 365, 90, 70

// replayClock accumulates per-layer time over traced replays.
type replayClock struct {
	on                                bool
	read, apply, applyRefit, finalize time.Duration
	stats                             stream.Stats
}

// replayLog replays a whole log into a fresh Maintainer and finalizes
// it. Every Apply that closes a day is an operation: class "refit" when
// the live model refit during it, "plain" otherwise.
func replayLog(ctx context.Context, log []byte, cfg simulate.Config, samples []Sample, c *replayClock) (
	*figures.Data, []Sample, int64, error) {
	rd, err := stream.NewReader(bytes.NewReader(log))
	if err != nil {
		return nil, samples, 0, err
	}
	m, err := stream.NewMaintainer(stream.Config{Sim: cfg})
	if err != nil {
		return nil, samples, 0, err
	}
	var refits int64
	for {
		var t0 time.Time
		if c.on {
			t0 = time.Now()
		}
		rec, err := rd.Next()
		if c.on {
			c.read += time.Since(t0)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, samples, 0, err
		}
		wm := m.Watermark()
		t1 := time.Now()
		err = m.Apply(ctx, &rec)
		d := time.Since(t1)
		if err != nil {
			return nil, samples, 0, err
		}
		c.apply += d
		if m.Watermark() > wm {
			class := "plain"
			if s := m.Stats(); s.Refits > refits {
				refits, class = s.Refits, "refit"
				c.applyRefit += d
			}
			samples = append(samples, Sample{Class: class, MS: ms(d)})
		}
		if rec.Kind == stream.KindSeal {
			break
		}
	}
	s := m.Stats()
	if c.on {
		c.stats.RecordsIn += s.RecordsIn
		c.stats.Refits += s.Refits
		c.stats.Late += s.Late
		c.stats.Duplicates += s.Duplicates
	}
	t2 := time.Now()
	d, err := m.Finalize(ctx)
	if c.on {
		c.finalize += time.Since(t2)
	}
	return d, samples, s.RecordsIn, err
}

// streamStudies is how many studies a run cycles through, so that one
// study's shape does not set a run's figures.
const streamStudies = 4

// runStreamReplay replays simulated studies' event logs, record by
// record, through the watermark maintainer and its live refitter.
func runStreamReplay(ctx context.Context, o options, r *report) error {
	cfgs := make([]simulate.Config, streamStudies)
	for k := range cfgs {
		cfgs[k] = simulate.Config{
			Seed:     1000 + streamStudies*o.seed + uint64(k),
			Days:     streamDays,
			Topology: topology.Config{RacksPerDC: [2]int{streamDC1, streamDC2}},
		}
	}
	logs := make([][]byte, streamStudies)
	setups, err := timeSetups(11, func() error {
		for k, cfg := range cfgs {
			res, err := simulate.RunContext(ctx, cfg)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := stream.WriteStudyLog(&buf, res); err != nil {
				return err
			}
			logs[k] = buf.Bytes()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.logf("load: one reader, replays back to back, cycling through in-memory logs of %d studies (seeds %d..%d, %d racks x %d days)",
		streamStudies, cfgs[0].Seed, cfgs[streamStudies-1].Seed, streamDC1+streamDC2, streamDays)

	// The replay law: every finalized study's envelope must equal the
	// batch study's, byte for byte. Each check runs outside the timing.
	want := make([][]byte, streamStudies)
	for k, cfg := range cfgs {
		st, err := rainshine.NewStudyContext(ctx, rainshine.WithSeed(cfg.Seed), rainshine.WithDays(streamDays),
			rainshine.WithRacks(streamDC1, streamDC2))
		if err != nil {
			return fmt.Errorf("batch study: %w", err)
		}
		if want[k], err = stream.EnvelopeJSON(ctx, st.Figures()); err != nil {
			return fmt.Errorf("batch envelope: %w", err)
		}
	}

	type phase struct {
		samples []Sample
		records int64
		replays int
		wall    time.Duration
		clock   *replayClock
	}
	replays := 0
	runPhase := func(seconds float64, traced bool) (phase, error) {
		p := phase{clock: &replayClock{on: traced}}
		for p.wall.Seconds() < seconds {
			if err := ctx.Err(); err != nil {
				return p, err
			}
			k := replays % streamStudies
			replays++
			// Each replay starts from a collected heap, so the previous
			// replay's check does not leave garbage for it to collect.
			// The heap stays mapped: faulting its pages in again would
			// add a cost that follows the host's load.
			runtime.GC()
			before := len(p.samples)
			t0 := time.Now()
			d, samples, recs, err := replayLog(ctx, logs[k], cfgs[k], p.samples, p.clock)
			p.wall += time.Since(t0)
			p.samples = samples
			p.records += recs
			p.replays++
			r.ops(len(p.samples)-before, 0)
			if err != nil {
				r.ops(1, 0)
				r.checkFailed("replay %d: %v", replays, err)
				continue
			}
			if got, err := stream.EnvelopeJSON(ctx, d); err != nil {
				r.checkFailed("replay %d envelope: %v", replays, err)
			} else if !bytes.Equal(got, want[k]) {
				r.checkFailed("replay %d envelope differs from the batch envelope", replays)
			}
		}
		return p, nil
	}
	plainSeconds := o.seconds
	if o.trace {
		plainSeconds = o.seconds / 2
	}
	plain, err := runPhase(plainSeconds, false)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var traced phase
	if o.trace {
		if traced, err = runPhase(o.seconds/2, true); err != nil {
			return err
		}
	}
	r.logf("checks: %d finalized replays' envelopes compared with their batch study's envelope", replays)

	if !o.trace {
		return r.endToEndMetrics(setups, plain.samples, float64(plain.records), "records/s", plain.wall, rss)
	}
	if plain.replays == 0 || traced.replays == 0 {
		return fmt.Errorf("too few replays for a traced run")
	}
	n := float64(traced.replays)
	c := traced.clock
	r.set("trace.overhead_ms", ms(traced.wall)/n-ms(plain.wall)/float64(plain.replays))
	r.set("stream.read_ms", ms(c.read)/n)
	r.set("stream.apply_ms", ms(c.apply)/n)
	r.set("stream.apply_refit_ms", ms(c.applyRefit)/n)
	r.set("stream.finalize_ms", ms(c.finalize)/n)
	r.set("stream.records", float64(c.stats.RecordsIn)/n)
	r.set("stream.refits", float64(c.stats.Refits)/n)
	r.set("stream.late", float64(c.stats.Late)/n)
	r.set("stream.duplicates", float64(c.stats.Duplicates)/n)
	r.logf("trace: per replay, over %d traced replays", traced.replays)
	return nil
}

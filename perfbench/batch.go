package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rainshine"
)

// batchLayers are the public calls one batch_paper iteration makes, in
// order, named after the layer doing the work.
var batchLayers = []string{"simulate", "metrics", "figures", "provision", "skucmp", "envan", "predict"}

// layerClock times calls into layers and counts the bytes they allocate
// and the collections that ran during them. When off it only runs them.
type layerClock struct {
	on    bool
	busy  map[string]time.Duration
	alloc map[string]uint64
	gc    uint32
}

func newLayerClock(on bool) *layerClock {
	return &layerClock{on: on, busy: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

func (c *layerClock) do(layer string, fn func() error) error {
	if !c.on {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	c.busy[layer] += time.Since(t0)
	runtime.ReadMemStats(&after)
	c.alloc[layer] += after.TotalAlloc - before.TotalAlloc
	c.gc += after.NumGC - before.NumGC
	return err
}

// paperAnswers is what one regeneration of the paper's decision
// analyses produces; its JSON is the iteration's report.
type paperAnswers struct {
	Q1W1    *rainshine.SpareReport      `json:"q1_w1"`
	Q1W6    *rainshine.SpareReport      `json:"q1_w6"`
	Q2      *rainshine.VendorReport     `json:"q2"`
	Q3      *rainshine.ClimateReport    `json:"q3"`
	Predict *rainshine.PredictionReport `json:"predict"`
}

// regeneratePaper is one batch_paper iteration: a fresh study, every
// table and figure, then Q1 (W1, W6), Q2, Q3 and failure prediction.
func regeneratePaper(ctx context.Context, c *layerClock, opts ...rainshine.Option) (*paperAnswers, error) {
	var st *rainshine.Study
	var a paperAnswers
	steps := []struct {
		layer string
		fn    func() error
	}{
		{"simulate", func() (err error) { st, err = rainshine.NewStudyContext(ctx, opts...); return err }},
		{"metrics", func() error { _, err := st.Figures().RackDays(); return err }},
		{"figures", func() error { return st.Warmup(ctx) }},
		{"provision", func() (err error) {
			if a.Q1W1, err = st.SpareProvisioning(rainshine.W1, false); err != nil {
				return err
			}
			a.Q1W6, err = st.SpareProvisioning(rainshine.W6, false)
			return err
		}},
		{"skucmp", func() (err error) { a.Q2, err = st.VendorComparison(); return err }},
		{"envan", func() (err error) { a.Q3, err = st.ClimateGuidanceContext(ctx); return err }},
		{"predict", func() (err error) { a.Predict, err = st.FailurePrediction(); return err }},
	}
	for _, s := range steps {
		if err := c.do(s.layer, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.layer, err)
		}
	}
	return &a, nil
}

// runBatchPaper regenerates the paper's study (seed 42, 621 racks × 930
// days) in process, once per operation. The input is the paper's own,
// so the workload seed is recorded but changes nothing. Set-up is one
// regeneration at the CLI's -small size, which brings the heap, the
// worker pools and the code to a running state. Iterations then run on
// the heap the previous one left, as in a long-lived process, so that
// faulting in a fresh heap, whose cost follows the host's load, is not
// part of their time.
func runBatchPaper(ctx context.Context, o options, r *report) error {
	small := []rainshine.Option{rainshine.WithDays(365), rainshine.WithRacks(120, 100)}
	setups, err := timeSetups(7, func() error {
		_, err := regeneratePaper(ctx, newLayerClock(false), small...)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.logf("load: one analyst, iterations back to back in one process; input seed %d (the paper's), %d racks x %d days",
		rainshine.DefaultSeed, 331+290, 930)

	var first []byte
	type phase struct {
		samples []Sample
		wall    time.Duration
		clock   *layerClock
	}
	runPhase := func(seconds float64, traced bool) (phase, error) {
		p := phase{clock: newLayerClock(traced)}
		for p.wall.Seconds() < seconds {
			if err := ctx.Err(); err != nil {
				return p, err
			}
			t0 := time.Now()
			ans, err := regeneratePaper(ctx, p.clock)
			d := time.Since(t0)
			p.wall += d
			r.ops(1, 0)
			if err != nil {
				r.checkFailed("iteration %d: %v", len(p.samples), err)
				continue
			}
			p.samples = append(p.samples, Sample{Class: "iteration", MS: ms(d)})
			//lint:allow nansafe the daemon encodes the same way; a failed encode is a failed check
			got, err := json.Marshal(ans)
			switch {
			case err != nil:
				r.checkFailed("encoding report: %v", err)
			case first == nil:
				first = got
			case !bytes.Equal(got, first):
				r.checkFailed("iteration %d report differs from the first iteration's", len(p.samples))
			}
		}
		return p, nil
	}

	if !o.trace {
		p, err := runPhase(o.seconds, false)
		if err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.logf("checks: %d iteration reports (%d bytes) compared byte for byte", len(p.samples), len(first))
		r.logf("iterations_ms: %.0f", sampleMS(p.samples))
		return r.endToEndMetrics(setups, p.samples, float64(len(p.samples)), "studies/s", p.wall, rss)
	}

	plain, err := runPhase(o.seconds/2, false)
	if err != nil {
		return err
	}
	traced, err := runPhase(o.seconds/2, true)
	if err != nil {
		return err
	}
	n := float64(len(traced.samples))
	if n == 0 || len(plain.samples) == 0 {
		return fmt.Errorf("too few iterations for a traced run")
	}
	r.set("trace.overhead_ms", ms(traced.wall)/n-ms(plain.wall)/float64(len(plain.samples)))
	r.set("runtime.gc_cycles", float64(traced.clock.gc)/n)
	var layerSum time.Duration
	for _, l := range batchLayers {
		layerSum += traced.clock.busy[l]
		r.set(l+".busy_ms", ms(traced.clock.busy[l])/n)
		r.set(l+".alloc_mb", float64(traced.clock.alloc[l])/(1<<20)/n)
	}
	pct := 100 * layerSum.Seconds() / traced.wall.Seconds()
	r.set("ledger.layer_sum_pct", pct)
	r.logf("ledger: layers sum to %.1f%% of %d iterations' wall (rule: within 10%%)", pct, len(traced.samples))
	if pct < 90 || pct > 110 {
		r.checkFailed("layer times sum to %.1f%% of iteration wall, outside 90-110%%", pct)
	}
	return nil
}

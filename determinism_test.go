package rainshine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"rainshine/internal/figures"
	"rainshine/internal/stream"
)

// TestWorkersDeterministic is the end-to-end determinism guarantee: the
// JSON-encoded Q1-Q3 and prediction reports of a study built and
// analyzed with any worker count are byte-identical to the serial
// (workers=1) study. This is what lets the serve daemon treat Workers as
// a tuning knob instead of a cache-key dimension.
//
// It also holds the study memo to the same bar: a study that shares
// sub-analyses between the figures and Q1-Q3 (warmed, or filled by
// concurrent reads) answers every table, figure, Q1-Q3 question and
// stream envelope byte for byte as a baseline that computes each
// output on its own fresh study, with nothing shared, and a canceled Q3
// fit is never memoized.
func TestWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six studies; skipped in -short")
	}
	study := func(opts ...Option) *Study {
		t.Helper()
		s, err := NewStudy(append([]Option{WithSeed(42), WithDays(150), WithRacks(30, 26)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reports := func(w int) map[string][]byte {
		t.Helper()
		s := study(WithWorkers(w))
		out := make(map[string][]byte)
		add := func(name string, rep any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", w, name, err)
			}
			buf, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("workers=%d: encoding %s: %v", w, name, err)
			}
			out[name] = buf
		}
		q1, err := s.SpareProvisioning(W6, false)
		add("q1", q1, err)
		q2, err := s.VendorComparison()
		add("q2", q2, err)
		q3, err := s.ClimateGuidance()
		add("q3", q3, err)
		pred, err := s.FailurePrediction()
		add("predict", pred, err)
		return out
	}

	want := reports(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got := reports(w)
		for name, wantBuf := range want {
			if string(got[name]) != string(wantBuf) {
				t.Errorf("workers=%d: %s JSON differs from serial\nserial:   %.200s\nparallel: %.200s",
					w, name, wantBuf, got[name])
			}
		}
	}

	// A cold study: a Q3 read under a canceled ctx fails with that ctx's
	// error and leaves the memo entry empty, so the next read fits afresh
	// and agrees with Fig 18, which reads the same entry.
	cold := study()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cold.ClimateGuidanceContext(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Q3 = %v, want context.Canceled", err)
	}
	q3, err := cold.ClimateGuidanceContext(context.Background())
	if err != nil {
		t.Fatalf("Q3 after a canceled one: %v", err)
	}
	fig18, err := cold.Figures().Fig18()
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	if !same(q3.TempThresholdF, fig18.TempThresholdF) || !same(q3.RHThreshold, fig18.RHThreshold) {
		t.Errorf("Q3 thresholds (%v F, %v %%) differ from Fig 18's (%v F, %v %%)",
			q3.TempThresholdF, q3.RHThreshold, fig18.TempThresholdF, fig18.RHThreshold)
	}

	warmed := study()
	if err := warmed.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := studyOutputs()
	wantOut := make([]string, len(outs))
	for i, o := range outs {
		v, err := o.fn(study())
		if err != nil {
			t.Fatalf("fresh study: %s: %v", o.name, err)
		}
		wantOut[i] = v
	}
	for _, tc := range []struct {
		name string
		s    *Study
	}{{"warmed", warmed}, {"cold", cold}} {
		got := make([]string, len(outs))
		errs := make([]error, len(outs))
		var wg sync.WaitGroup
		for i, o := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = o.fn(tc.s)
			}()
		}
		wg.Wait()
		for i, o := range outs {
			switch {
			case errs[i] != nil:
				t.Errorf("%s study: %s: %v", tc.name, o.name, errs[i])
			case got[i] != wantOut[i]:
				t.Errorf("%s study: %s differs from a fresh study\nfresh: %.300s\n%s: %.300s",
					tc.name, o.name, wantOut[i], tc.name, got[i])
			}
		}
	}
}

// studyOutput is one answer a study gives, rendered as comparable text.
type studyOutput struct {
	name string
	fn   func(s *Study) (string, error)
}

// studyOutputs lists every table and figure, Q1 for each (workload,
// granularity), Q2 for two price-ratio lists, Q3, the failure
// prediction and the stream envelope. Reports render as their JSON; figure rows, which may hold
// NaN, render with %v (shortest round-trip floats).
func studyOutputs() []studyOutput {
	rows := func(name string, fn func(d *figures.Data) (any, error)) studyOutput {
		return studyOutput{name, func(s *Study) (string, error) {
			v, err := fn(s.Figures())
			return fmt.Sprintf("%v", v), err
		}}
	}
	report := func(name string, fn func(s *Study) (any, error)) studyOutput {
		return studyOutput{name, func(s *Study) (string, error) {
			v, err := fn(s)
			if err != nil {
				return "", err
			}
			buf, err := json.Marshal(v)
			return string(buf), err
		}}
	}
	outs := []studyOutput{
		rows("table I", func(d *figures.Data) (any, error) { return d.TableI(), nil }),
		rows("table II", func(d *figures.Data) (any, error) { return d.TableII(), nil }),
		rows("table III", func(d *figures.Data) (any, error) { return d.TableIII(), nil }),
		rows("table IV", func(d *figures.Data) (any, error) { return d.TableIV() }),
		rows("fig 1", func(d *figures.Data) (any, error) { return d.Fig1() }),
		rows("fig 2", func(d *figures.Data) (any, error) { return d.Fig2() }),
		rows("fig 3", func(d *figures.Data) (any, error) { return d.Fig3() }),
		rows("fig 4", func(d *figures.Data) (any, error) { return d.Fig4() }),
		rows("fig 5", func(d *figures.Data) (any, error) { return d.Fig5() }),
		rows("fig 6", func(d *figures.Data) (any, error) { return d.Fig6() }),
		rows("fig 7", func(d *figures.Data) (any, error) { return d.Fig7() }),
		rows("fig 8", func(d *figures.Data) (any, error) { return d.Fig8() }),
		rows("fig 9", func(d *figures.Data) (any, error) { return d.Fig9() }),
		rows("fig 10", func(d *figures.Data) (any, error) { return d.Fig10() }),
		rows("fig 11", func(d *figures.Data) (any, error) { return d.Fig11() }),
		rows("fig 12", func(d *figures.Data) (any, error) { return d.Fig12() }),
		rows("fig 13", func(d *figures.Data) (any, error) { return d.Fig13() }),
		rows("fig 14", func(d *figures.Data) (any, error) { return d.Fig14() }),
		rows("fig 15", func(d *figures.Data) (any, error) { return d.Fig15() }),
		rows("fig 16", func(d *figures.Data) (any, error) { return d.Fig16() }),
		rows("fig 17", func(d *figures.Data) (any, error) { return d.Fig17() }),
		rows("fig 18", func(d *figures.Data) (any, error) {
			r, err := d.Fig18()
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("%v %v %v\n%s", r.TempThresholdF, r.RHThreshold, r.Groups, r.Tree), nil
		}),
	}
	for _, wl := range []Workload{W1, W2, W3, W4, W5, W6, W7} {
		for _, hourly := range []bool{false, true} {
			outs = append(outs, report(fmt.Sprintf("q1 %v hourly=%t", wl, hourly),
				func(s *Study) (any, error) { return s.SpareProvisioning(wl, hourly) }))
		}
	}
	for _, ratios := range [][]float64{{1.0, 1.5}, {0.8, 1.2, 2.0}} {
		outs = append(outs, report(fmt.Sprintf("q2 %v", ratios),
			func(s *Study) (any, error) { return s.VendorComparison(ratios...) }))
	}
	return append(outs,
		report("q3", func(s *Study) (any, error) { return s.ClimateGuidance() }),
		report("predict", func(s *Study) (any, error) { return s.FailurePrediction() }),
		studyOutput{"stream envelope", func(s *Study) (string, error) {
			buf, err := stream.EnvelopeJSON(context.Background(), s.Figures())
			return string(buf), err
		}},
	)
}

// Command perfbench is rainshine's end-to-end benchmark. It runs one
// workload for a fixed number of seconds, checks every output against an
// independent path, and prints the result as one JSON object on the last
// line of standard output:
//
//	perfbench --workload batch_paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, p50_ms,
// tail_ms, work_per_s, peak_rss_mb). With --trace 1 the run is split into
// an untraced and a traced half; the metrics are the per-layer ones,
// timed around the public calls into each layer from this package, plus
// the tracing overhead. README.md explains each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options, r *report) error{
	"batch_paper":   runBatchPaper,
	"serve_read":    runServeRead,
	"stream_replay": runStreamReplay,
}

// endToEnd lists the metrics every untraced run reports, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A workload sets
// the ones on its path; the rest stay 0 and are named as off-path.
var perLayer = []metricDef{
	{"trace.overhead_ms", "ms"},
	{"ledger.layer_sum_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"simulate.busy_ms", "ms"},
	{"simulate.alloc_mb", "MB"},
	{"metrics.busy_ms", "ms"},
	{"metrics.alloc_mb", "MB"},
	{"figures.busy_ms", "ms"},
	{"figures.alloc_mb", "MB"},
	{"provision.busy_ms", "ms"},
	{"provision.alloc_mb", "MB"},
	{"skucmp.busy_ms", "ms"},
	{"skucmp.alloc_mb", "MB"},
	{"envan.busy_ms", "ms"},
	{"envan.alloc_mb", "MB"},
	{"predict.busy_ms", "ms"},
	{"predict.alloc_mb", "MB"},
	{"class.quality.count", "count"},
	{"class.quality.p50_ms", "ms"},
	{"class.q1_daily.count", "count"},
	{"class.q1_daily.p50_ms", "ms"},
	{"class.q1_hourly.count", "count"},
	{"class.q1_hourly.p50_ms", "ms"},
	{"class.q2.count", "count"},
	{"class.q2.p50_ms", "ms"},
	{"server.self_ms", "ms"},
	{"http.rtt_ms", "ms"},
	{"registry.hits", "count"},
	{"registry.misses", "count"},
	{"resilience.shed", "count"},
	{"stream.read_ms", "ms"},
	{"stream.apply_ms", "ms"},
	{"stream.apply_refit_ms", "ms"},
	{"stream.finalize_ms", "ms"},
	{"stream.records", "count"},
	{"stream.refits", "count"},
	{"stream.late", "count"},
	{"stream.duplicates", "count"},
}

type metricDef struct{ Name, Unit string }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: batch_paper, serve_read or stream_replay")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "seconds of timed work")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %v --seconds >=1 --trace 0|1\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	r := newReport(stdout, o.trace)
	r.logf("perfbench workload=%s seed=%d seconds=%d trace=%d", o.workload, o.seed, *seconds, *trace)
	r.logf("env: %s", environment())
	if err := runner(ctx, o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := r.finish(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's human-readable lines, operation counts,
// check failures and metrics.
type report struct {
	out       io.Writer
	trace     bool
	attempted int
	failed    int
	checks    []string // failed output checks, for the log
	metrics   map[string]metric
	units     map[string]string
}

func newReport(out io.Writer, trace bool) *report {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &report{out: out, trace: trace, metrics: map[string]metric{}, units: map[string]string{}}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// set records a metric. A name outside this mode's catalogue, or a
// value that is not a finite number, is a bug.
func (r *report) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this mode's catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s = %v", name, v))
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// ops adds operations attempted and failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// checkFailed counts a failed output check as a failed operation.
func (r *report) checkFailed(format string, args ...any) {
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// finish fills off-path per-layer metrics with 0, then prints the
// result object as the last line.
func (r *report) finish() error {
	if r.attempted < 1 {
		return errors.New("no operations attempted")
	}
	var missing []string
	for name := range r.units {
		if _, ok := r.metrics[name]; !ok {
			if !r.trace {
				return fmt.Errorf("end-to-end metric %s not measured", name)
			}
			missing = append(missing, name)
			r.metrics[name] = metric{Value: 0, Unit: r.units[name]}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.logf("off-path layers (reported as 0): %v", missing)
	}
	for _, c := range r.checks {
		r.logf("CHECK FAILED: %s", c)
	}
	r.logf("ops=%d ops_failed=%d", r.attempted, r.failed)
	//lint:allow nansafe set admits only finite metric values
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

// endToEndMetrics sets the five end-to-end metrics from a run's set-up
// times, latency samples, timed wall and the peak RSS read right after
// the timed work (before any output check), and logs how each was taken.
func (r *report) endToEndMetrics(setups []time.Duration, samples []Sample, work float64,
	workUnit string, wall time.Duration, rssMB float64) error {
	sum, err := summarize(samples)
	if err != nil {
		return err
	}
	if len(sum.Bands) > 1 {
		for _, b := range sum.Bands {
			r.logf("class %-9s count=%d p50_ms=%.4f band=p%.1f-p%.1f", b.Class, b.Count, b.P50, b.Lo, b.Hi)
		}
		if err := checkBoundaries(sum); err != nil {
			return err
		}
	}
	med := medianDuration(setups)
	r.logf("setup_s: median of %d set-ups %v", len(setups), setups)
	r.set("setup_s", med.Seconds())

	r.logf("p50_ms: n=%d, class %s", sum.N, sum.P50Class)
	r.set("p50_ms", sum.P50)
	if sum.Tail.OK {
		r.logf("tail_ms: p%g, n=%d, %d samples beyond, class %s", sum.Tail.P, sum.N, sum.Tail.Beyond, sum.TailClass)
		r.set("tail_ms", sum.Tail.Value)
	} else {
		// Too few operations for any percentile with minBeyond samples
		// above it; the slowest operation stands in, and says so.
		r.logf("tail_ms: no tail (n=%d; no ladder percentile has %d samples beyond it); reporting the max",
			sum.N, minBeyond)
		r.set("tail_ms", sum.Max)
	}
	r.logf("work_per_s: %.1f %s over %.2f s of timed wall", work/wall.Seconds(), workUnit, wall.Seconds())
	r.set("work_per_s", work/wall.Seconds())
	r.set("peak_rss_mb", rssMB)
	return nil
}

// timeSetups runs setup n times and returns each duration; the
// workload keeps the state the last set-up left. Memory is returned to
// the OS before each, so each set-up's peak resident set is its own.
func timeSetups(n int, setup func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func sampleMS(s []Sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.MS
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

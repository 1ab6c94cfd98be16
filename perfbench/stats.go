package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported as a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The rungs are far apart, so that a run whose operation count
// wanders by a third still reports the same percentile as its
// neighbours. It stops at p99: above it, a tail of tens of thousands of
// sub-millisecond operations reads garbage-collector pauses, not the
// operations' own cost.
var tailLadder = []float64{99, 95, 90, 75}

// boundaryMargin is how close (in percentage points) a reported
// percentile may come to a boundary between cost classes before the run
// refuses to report: there, a few samples moving between classes swing
// the percentile from one class's latency to the other's.
const boundaryMargin = 10.0

// nearestRank returns the 1-based nearest rank of percentile p among n
// samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Tail is the highest ladder percentile with at least minBeyond samples
// above it. OK is false when no ladder percentile qualifies.
type Tail struct {
	P      float64
	Value  float64
	Beyond int
	OK     bool
}

// tailOf applies the tail rule to ascending samples.
func tailOf(sorted []float64) Tail {
	n := len(sorted)
	for _, p := range tailLadder {
		r := nearestRank(p, n)
		if n-r >= minBeyond {
			return Tail{P: p, Value: sorted[r-1], Beyond: n - r, OK: true}
		}
	}
	return Tail{}
}

// Sample is one timed operation and the cost class it belongs to.
type Sample struct {
	Class string
	MS    float64
}

// Band is one cost class's place in the pooled latency order: its
// samples would occupy percentiles [Lo, Hi) if classes never overlapped.
// Classes are ordered by their median.
type Band struct {
	Class  string
	Count  int
	P50    float64
	Lo, Hi float64
}

// Summary is the latency distribution of one run.
type Summary struct {
	N         int
	Max       float64
	P50       float64
	P50Class  string
	Tail      Tail
	TailClass string
	Bands     []Band
}

// summarize pools the samples, takes the median and the tail, and
// places every class in percentile space.
func summarize(samples []Sample) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, fmt.Errorf("no operations completed")
	}
	pooled := append([]Sample(nil), samples...)
	sort.SliceStable(pooled, func(i, j int) bool { return pooled[i].MS < pooled[j].MS })
	ms := make([]float64, len(pooled))
	for i, s := range pooled {
		ms[i] = s.MS
	}
	n := len(ms)
	mid := nearestRank(50, n)
	sum := Summary{N: n, Max: ms[n-1], P50: ms[mid-1], P50Class: pooled[mid-1].Class, Tail: tailOf(ms)}
	if sum.Tail.OK {
		sum.TailClass = pooled[nearestRank(sum.Tail.P, n)-1].Class
	}
	sum.Bands = bands(samples)
	return sum, nil
}

// bands orders the classes by median and gives each its share of the
// pooled samples as a percentile interval.
func bands(samples []Sample) []Band {
	byClass := map[string][]float64{}
	for _, s := range samples {
		byClass[s.Class] = append(byClass[s.Class], s.MS)
	}
	out := make([]Band, 0, len(byClass))
	for c, v := range byClass {
		sort.Float64s(v)
		out = append(out, Band{Class: c, Count: len(v), P50: v[nearestRank(50, len(v))-1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P50 != out[j].P50 {
			return out[i].P50 < out[j].P50
		}
		return out[i].Class < out[j].Class
	})
	lo := 0.0
	for i := range out {
		out[i].Lo = lo
		lo += 100 * float64(out[i].Count) / float64(len(samples))
		out[i].Hi = lo
	}
	out[len(out)-1].Hi = 100
	return out
}

// checkBoundaries refuses a summary whose median or tail lies within
// boundaryMargin percentage points of a boundary between two classes.
func checkBoundaries(s Summary) error {
	check := func(name string, p float64) error {
		for _, b := range s.Bands[1:] {
			if math.Abs(p-b.Lo) < boundaryMargin {
				return fmt.Errorf("%s (p%g) is %.1f pp from the class boundary at p%.1f below %s; "+
					"refusing to report a percentile that can flip between classes",
					name, p, math.Abs(p-b.Lo), b.Lo, b.Class)
			}
		}
		return nil
	}
	if err := check("p50", 50); err != nil {
		return err
	}
	if s.Tail.OK {
		return check("tail", s.Tail.P)
	}
	return nil
}

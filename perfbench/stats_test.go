package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		beyond int
	}{
		{n: 1},
		{n: 10},
		{n: 39}, // p75 would leave only 9 samples beyond it
		{n: 40, ok: true, p: 75, beyond: 10},
		{n: 100, ok: true, p: 90, beyond: 10},
		{n: 999, ok: true, p: 95, beyond: 49},
		{n: 1000, ok: true, p: 99, beyond: 10},
		{n: 10000, ok: true, p: 99, beyond: 100},
	} {
		got := tailOf(ascending(tc.n))
		if got.OK != tc.ok || got.P != tc.p || got.Beyond != tc.beyond {
			t.Errorf("n=%d: tail %+v, want ok=%v p%g with %d beyond", tc.n, got, tc.ok, tc.p, tc.beyond)
		}
		if got.OK && got.Value != float64(tc.n-tc.beyond) {
			t.Errorf("n=%d: tail value %g, want the sample at rank %d", tc.n, got.Value, tc.n-tc.beyond)
		}
	}
}

// A tail is never the median reported twice: whenever one exists it
// lies above the median with at least minBeyond samples past it.
func TestTailAboveMedian(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		got := tailOf(ascending(n))
		if !got.OK {
			continue
		}
		if got.Beyond < minBeyond || got.P <= 50 || nearestRank(got.P, n) <= nearestRank(50, n) {
			t.Fatalf("n=%d: tail %+v is not a tail", n, got)
		}
	}
}

func TestReadScheduleDeterministic(t *testing.T) {
	const n = 10 * 24
	paths := func(seed uint64) []string {
		next := readSchedule(seed)
		out := make([]string, n)
		for i := range out {
			out[i] = next(i).path
		}
		return out
	}
	a, b := paths(7), paths(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, paths(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// Every block of 24 is a permutation of the fixed mix.
	var want []string
	for _, r := range readMix() {
		want = append(want, r.path)
	}
	sort.Strings(want)
	for blk := 0; blk < n/24; blk++ {
		got := append([]string(nil), a[blk*24:(blk+1)*24]...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d is not a permutation of the mix", blk)
		}
	}
	classes := map[string]int{}
	for _, r := range readMix() {
		classes[r.class]++
	}
	if !reflect.DeepEqual(classes, map[string]int{"quality": 2, "q1_daily": 7, "q1_hourly": 7, "q2": 8}) {
		t.Fatalf("mix classes %v", classes)
	}
}

// classSamples builds n samples, the first share of them cheap.
func classSamples(n int, cheapShare float64) []Sample {
	var s []Sample
	for i := 0; i < n; i++ {
		if float64(i) < cheapShare*float64(n) {
			s = append(s, Sample{Class: "cheap", MS: 1 + float64(i%7)/100})
		} else {
			s = append(s, Sample{Class: "dear", MS: 40 + float64(i%11)/10})
		}
	}
	return s
}

func TestClassBoundaryRefusal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		share  float64
		refuse string
	}{
		{name: "median well inside a class", share: 0.25},
		{name: "median near the boundary", share: 0.45, refuse: "p50"},
		{name: "median near the boundary from above", share: 0.58, refuse: "p50"},
		{name: "tail near the boundary", share: 0.95, refuse: "tail"},
	} {
		sum, err := summarize(classSamples(1000, tc.share))
		if err != nil {
			t.Fatal(err)
		}
		err = checkBoundaries(sum)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refuse != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.refuse)):
			t.Errorf("%s: got %v, want a refusal naming %s", tc.name, err, tc.refuse)
		}
	}
}

func TestSummaryNamesClasses(t *testing.T) {
	sum, err := summarize(classSamples(1000, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if sum.P50Class != "dear" || sum.TailClass != "dear" {
		t.Errorf("p50 in %s, tail in %s; want both in dear", sum.P50Class, sum.TailClass)
	}
	if len(sum.Bands) != 2 || sum.Bands[0].Class != "cheap" || sum.Bands[1].Lo != 25 || sum.Bands[1].Hi != 100 {
		t.Errorf("bands %+v", sum.Bands)
	}
}

// The catalogue this program reports must be the one BENCHMARK.json
// declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", workloadNames(), names)
	}
	same := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		var got []metricDef
		for _, d := range declared {
			got = append(got, metricDef{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\nprogram: %v\njson:    %v", kind, defs, got)
		}
	}
	same("end-to-end", endToEnd, spec.EndToEnd)
	same("per-layer", perLayer, spec.PerLayer)
}

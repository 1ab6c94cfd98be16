package workload

import (
	"testing"

	"rainshine/internal/rng"
	"rainshine/internal/stats"
	"rainshine/internal/topology"
)

func buildModel(t *testing.T, days int) *Model {
	t.Helper()
	m, err := New(rng.New(3), days)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewErrors(t *testing.T) {
	if _, err := New(rng.New(1), 0); err == nil {
		t.Error("zero days should error")
	}
}

func TestUtilizationBounds(t *testing.T) {
	m := buildModel(t, 365)
	for wl := topology.W1; wl < topology.NumWorkloads; wl++ {
		for d := 0; d < 365; d += 7 {
			u, err := m.Utilization(wl, d)
			if err != nil {
				t.Fatal(err)
			}
			if u < 0 || u > 1 {
				t.Fatalf("%v day %d utilization %v out of [0,1]", wl, d, u)
			}
		}
	}
}

func TestUtilizationErrors(t *testing.T) {
	m := buildModel(t, 30)
	if _, err := m.Utilization(topology.W1, -1); err == nil {
		t.Error("negative day should error")
	}
	if _, err := m.Utilization(topology.W1, 30); err == nil {
		t.Error("day past end should error")
	}
	if _, err := m.Utilization(topology.Workload(99), 0); err == nil {
		t.Error("unknown class should error")
	}
}

func TestInteractiveClassesCycleWeekly(t *testing.T) {
	m := buildModel(t, 364)
	var weekday, weekend []float64
	for d := 0; d < 364; d++ {
		u, err := m.Utilization(topology.W2, d)
		if err != nil {
			t.Fatal(err)
		}
		if d%7 == 0 || d%7 == 6 { // day 0 is a Sunday
			weekend = append(weekend, u)
		} else {
			weekday = append(weekday, u)
		}
	}
	if stats.Mean(weekday) < stats.Mean(weekend)+0.1 {
		t.Errorf("W2 weekday %v should clearly exceed weekend %v",
			stats.Mean(weekday), stats.Mean(weekend))
	}
}

func TestHPCRunsFlat(t *testing.T) {
	m := buildModel(t, 364)
	var all []float64
	for d := 0; d < 364; d++ {
		u, err := m.Utilization(topology.W3, d)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, u)
	}
	if sd := stats.StdDev(all); sd > 0.06 {
		t.Errorf("HPC utilization sd %v, want near-flat", sd)
	}
	if stats.Mean(all) < 0.7 {
		t.Errorf("HPC mean %v, want high", stats.Mean(all))
	}
}

func TestDeterminism(t *testing.T) {
	a := buildModel(t, 100)
	b := buildModel(t, 100)
	for d := 0; d < 100; d++ {
		ua, _ := a.Utilization(topology.W5, d)
		ub, _ := b.Utilization(topology.W5, d)
		if ua != ub {
			t.Fatalf("utilization not deterministic at day %d", d)
		}
	}
}

package climate

import (
	"context"
	"errors"
	"math"
	"testing"

	"rainshine/internal/rng"
	"rainshine/internal/stats"
	"rainshine/internal/topology"
)

func buildModel(t *testing.T, days int) (*Model, *topology.Fleet) {
	t.Helper()
	src := rng.New(rng.DefaultSeed)
	fleet, err := topology.Build(src.Split("topology"), topology.Config{ObservationDays: days})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(src.Split("climate"), fleet, days)
	if err != nil {
		t.Fatal(err)
	}
	return m, fleet
}

func TestBoundsRespected(t *testing.T) {
	m, fleet := buildModel(t, 365)
	for ri := 0; ri < len(fleet.Racks); ri += 7 {
		for d := 0; d < 365; d += 11 {
			c, err := m.At(ri, d)
			if err != nil {
				t.Fatal(err)
			}
			if c.TempF < MinTempF || c.TempF > MaxTempF {
				t.Fatalf("rack %d day %d temp %v out of [%v,%v]", ri, d, c.TempF, MinTempF, MaxTempF)
			}
			if c.RH < MinRH || c.RH > MaxRH {
				t.Fatalf("rack %d day %d RH %v out of [%v,%v]", ri, d, c.RH, MinRH, MaxRH)
			}
		}
	}
}

func TestAtErrors(t *testing.T) {
	m, _ := buildModel(t, 30)
	if _, err := m.At(-1, 0); err == nil {
		t.Error("negative rack should error")
	}
	if _, err := m.At(0, -1); err == nil {
		t.Error("negative day should error")
	}
	if _, err := m.At(0, 30); err == nil {
		t.Error("day past end should error")
	}
	if _, err := New(rng.New(1), &topology.Fleet{}, 0); err == nil {
		t.Error("zero days should error")
	}
	if m.Days() != 30 {
		t.Errorf("Days = %d", m.Days())
	}
}

func TestDC2IsFlatDC1Swings(t *testing.T) {
	m, fleet := buildModel(t, 365)
	var dc1Temps, dc2Temps []float64
	for ri := range fleet.Racks {
		for d := 0; d < 365; d += 5 {
			c, err := m.At(ri, d)
			if err != nil {
				t.Fatal(err)
			}
			if fleet.Racks[ri].DC == 0 {
				dc1Temps = append(dc1Temps, c.TempF)
			} else {
				dc2Temps = append(dc2Temps, c.TempF)
			}
		}
	}
	sd1 := stats.StdDev(dc1Temps)
	sd2 := stats.StdDev(dc2Temps)
	if sd1 < 2*sd2 {
		t.Errorf("DC1 temp sd %v should dwarf DC2 sd %v", sd1, sd2)
	}
	// DC1 must see meaningful time above 78F (the Fig 18 split) and
	// DC2 essentially none.
	hot1 := fracAbove(dc1Temps, 78)
	hot2 := fracAbove(dc2Temps, 78)
	if hot1 < 0.03 {
		t.Errorf("DC1 time above 78F = %v, want >= 3%%", hot1)
	}
	if hot2 > 0.01 {
		t.Errorf("DC2 time above 78F = %v, want ~0", hot2)
	}
}

func TestDC1HasDrySpells(t *testing.T) {
	m, fleet := buildModel(t, 365)
	var dc1RH []float64
	for ri := range fleet.Racks {
		if fleet.Racks[ri].DC != 0 {
			continue
		}
		for d := 0; d < 365; d += 3 {
			c, err := m.At(ri, d)
			if err != nil {
				t.Fatal(err)
			}
			dc1RH = append(dc1RH, c.RH)
		}
	}
	dry := 0
	for _, rh := range dc1RH {
		if rh < 25 {
			dry++
		}
	}
	if frac := float64(dry) / float64(len(dc1RH)); frac < 0.05 {
		t.Errorf("DC1 RH<25%% fraction = %v, want >= 5%%", frac)
	}
}

func TestHotRegionIsHotter(t *testing.T) {
	m, fleet := buildModel(t, 180)
	var region0, region2 []float64
	for ri := range fleet.Racks {
		r := &fleet.Racks[ri]
		if r.DC != 0 {
			continue
		}
		for d := 0; d < 180; d += 7 {
			c, err := m.At(ri, d)
			if err != nil {
				t.Fatal(err)
			}
			switch r.Region {
			case 0:
				region0 = append(region0, c.TempF)
			case 2:
				region2 = append(region2, c.TempF)
			}
		}
	}
	if stats.Mean(region0) < stats.Mean(region2)+2 {
		t.Errorf("region 0 mean %v not clearly hotter than region 2 mean %v",
			stats.Mean(region0), stats.Mean(region2))
	}
}

func TestSeasonality(t *testing.T) {
	m, fleet := buildModel(t, 365)
	// Compare January vs July mean inlet temperature in DC1.
	var jan, jul []float64
	for ri := range fleet.Racks {
		if fleet.Racks[ri].DC != 0 {
			continue
		}
		for d := 0; d < 28; d++ {
			c, _ := m.At(ri, d)
			jan = append(jan, c.TempF)
		}
		for d := 185; d < 213; d++ {
			c, _ := m.At(ri, d)
			jul = append(jul, c.TempF)
		}
	}
	if stats.Mean(jul) < stats.Mean(jan)+3 {
		t.Errorf("July mean %v not clearly above January mean %v", stats.Mean(jul), stats.Mean(jan))
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := buildModel(t, 60)
	b, _ := buildModel(t, 60)
	for ri := 0; ri < 50; ri++ {
		for d := 0; d < 60; d += 13 {
			ca, _ := a.At(ri, d)
			cb, _ := b.At(ri, d)
			if ca != cb {
				t.Fatalf("climate not deterministic at rack %d day %d", ri, d)
			}
		}
	}
}

// TestNewContextWorkerInvariance checks that the parallel fill matches
// the serial one in every reading (float32 bits), at any worker count,
// and that a canceled fill returns the context's error.
func TestNewContextWorkerInvariance(t *testing.T) {
	const days = 120
	want, fleet := buildModel(t, days)
	src := rng.New(rng.DefaultSeed).Split("climate")
	for _, w := range []int{2, 3, 8} {
		m, err := NewContext(context.Background(), src, fleet, days, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.temp {
			if math.Float32bits(m.temp[i]) != math.Float32bits(want.temp[i]) ||
				math.Float32bits(m.rh[i]) != math.Float32bits(want.rh[i]) {
				t.Fatalf("workers=%d: reading %d differs from the serial fill", w, i)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := NewContext(ctx, src, fleet, days, 2); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("canceled fill = (%v, %v), want (nil, context.Canceled)", m, err)
	}
}

func fracAbove(xs []float64, thr float64) float64 {
	n := 0
	for _, x := range xs {
		if x > thr {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

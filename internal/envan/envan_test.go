package envan

import (
	"context"
	"math"
	"testing"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

var cachedFrame *frame.Frame

func rackDayFrame(t *testing.T) *frame.Frame {
	t.Helper()
	if cachedFrame != nil {
		return cachedFrame
	}
	res, err := simulate.Run(simulate.Config{
		Seed:            13,
		Days:            540,
		Topology:        topology.Config{RacksPerDC: [2]int{140, 120}},
		SkipNonHardware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := metrics.RackDayFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	cachedFrame = f
	return f
}

func TestBinnedRatesDiskTrend(t *testing.T) {
	f := rackDayFrame(t)
	sums, err := BinnedRates(f, "disk_failures")
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(TempBinLabels) {
		t.Fatalf("bins = %d", len(sums))
	}
	// Fig 17: hottest bin clearly above the coolest populated bin.
	var coolest, hottest float64
	for _, s := range sums {
		if s.N > 100 {
			coolest = s.Mean
			break
		}
	}
	hottest = sums[len(sums)-1].Mean
	if sums[len(sums)-1].N < 50 {
		t.Fatal("hottest bin underpopulated; climate model broken")
	}
	if hottest <= coolest {
		t.Errorf("disk rate should rise with temperature: cool %v, hot %v", coolest, hottest)
	}
}

func TestBinnedRatesErrors(t *testing.T) {
	f := frame.New(1)
	if err := f.AddContinuous("x", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := BinnedRates(f, "x"); err == nil {
		t.Error("frame without temp should error")
	}
	if err := f.AddContinuous("temp", []float64{70}); err != nil {
		t.Fatal(err)
	}
	if _, err := BinnedRates(f, "nope"); err == nil {
		t.Error("missing value column should error")
	}
}

func TestAnalyzeFindsThresholds(t *testing.T) {
	f := rackDayFrame(t)
	res, err := Analyze(f, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Thresholds.TempF) {
		t.Fatal("no temperature threshold found")
	}
	if res.Thresholds.TempF < 72 || res.Thresholds.TempF > 84 {
		t.Errorf("temp threshold = %v, want near 78", res.Thresholds.TempF)
	}
	if !math.IsNaN(res.Thresholds.RH) {
		// The planted effect is a 1.25x step below 25% RH; threshold
		// recovery for an effect that small is noisy, so accept the
		// dry half of the range.
		if res.Thresholds.RH < 8 || res.Thresholds.RH > 40 {
			t.Errorf("RH threshold = %v, want in the dry range (~25)", res.Thresholds.RH)
		}
	}
	if res.Tree == nil || len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
}

func TestAnalyzeGroupContrasts(t *testing.T) {
	f := rackDayFrame(t)
	res, err := Analyze(f, cart.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var dc1, dc2 *GroupRates
	for i := range res.Groups {
		switch res.Groups[i].DC {
		case "DC1":
			dc1 = &res.Groups[i]
		case "DC2":
			dc2 = &res.Groups[i]
		}
	}
	if dc1 == nil || dc2 == nil {
		t.Fatal("missing DC groups")
	}
	// Fig 18 (i)-(iii): DC1 hot clearly above cool; hot+dry above hot.
	if dc1.Hot.N < 100 || dc1.Cool.N < 100 {
		t.Fatalf("DC1 groups underpopulated: hot %d cool %d", dc1.Hot.N, dc1.Cool.N)
	}
	hotRatio := dc1.Hot.Mean / dc1.Cool.Mean
	if hotRatio < 1.2 {
		t.Errorf("DC1 hot/cool = %v, want >= 1.2 (paper ~1.5)", hotRatio)
	}
	if dc1.HotDry.N > 50 && dc1.HotDry.Mean <= dc1.Hot.Mean {
		t.Errorf("DC1 hot+dry (%v) should exceed hot (%v)", dc1.HotDry.Mean, dc1.Hot.Mean)
	}
	// Fig 18 (i): DC2 insensitive — hot sample tiny or ratio near 1.
	if dc2.Hot.N > 200 {
		r := dc2.Hot.Mean / dc2.Cool.Mean
		if r > 1.3 {
			t.Errorf("DC2 should be environment-insensitive, hot/cool = %v", r)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	f := frame.New(1)
	if err := f.AddContinuous("disk_failures", []float64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(f, cart.Config{}); err == nil {
		t.Error("missing features should error")
	}
}

func TestBestThresholdCondBranch(t *testing.T) {
	// Hand-build a frame where y jumps only for temp>78, and rh matters
	// only within the hot branch.
	n := 4000
	f := frame.New(n)
	temp := make([]float64, n)
	rh := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		// Independent drivers: temp cycles fast, rh cycles slowly.
		temp[i] = 60 + float64(i%30)
		rh[i] = 10 + float64((i/30)%60)
		if temp[i] > 78 {
			y[i] = 1
			if rh[i] < 25 {
				y[i] = 2
			}
		}
	}
	for _, c := range []struct {
		name string
		data []float64
	}{{"temp", temp}, {"rh", rh}, {"y", y}} {
		if err := f.AddContinuous(c.name, c.data); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := cart.Fit(f, "y", []string{"temp", "rh"}, cart.Config{Task: cart.Regression, MaxDepth: 3, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	thr, ok := bestThreshold(tree, "temp", "")
	if !ok || thr < 77 || thr > 79 {
		t.Errorf("temp threshold = %v, %v", thr, ok)
	}
	rhThr, ok := bestThreshold(tree, "rh", "temp")
	if !ok || rhThr < 20 || rhThr > 30 {
		t.Errorf("rh threshold = %v, %v", rhThr, ok)
	}
	// rh split must NOT be found in the cool branch when conditioned.
	if _, ok := bestThreshold(tree, "nope", ""); ok {
		t.Error("unknown feature should not be found")
	}
	if _, ok := bestThreshold(tree, "rh", "nope"); ok {
		t.Error("unknown cond feature should not be found")
	}
}

func TestWinsorize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.3, 0.3}, {-0.7, -0.7}, {5, 1}, {-4, -1}, {1, 1}, {-1, -1},
	}
	for _, c := range cases {
		if got := winsorize(c.in); got != c.want {
			t.Errorf("winsorize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHotRegimeRHSplitConstraints(t *testing.T) {
	// Build a synthetic env frame where the dry tail is harmful.
	n := 3000
	f := frame.New(n)
	temp := make([]float64, n)
	rh := make([]float64, n)
	resid := make([]float64, n)
	for i := range temp {
		temp[i] = 80 // all hot
		rh[i] = 10 + float64(i%50)
		if rh[i] < 22 {
			resid[i] = 0.5
		}
	}
	for _, c := range []struct {
		name string
		data []float64
	}{{"temp", temp}, {"rh", rh}, {"resid", resid}} {
		if err := f.AddContinuous(c.name, c.data); err != nil {
			t.Fatal(err)
		}
	}
	thr, ok := hotRegimeRHSplit(context.Background(), f, 78, 1)
	if !ok || thr < 20 || thr > 24 {
		t.Errorf("threshold = %v, %v; want ~22", thr, ok)
	}
	// Invert the direction: humid side harmful -> no admissible split.
	for i := range resid {
		resid[i] = 0
		if rh[i] > 40 {
			resid[i] = 0.5
		}
	}
	if _, ok := hotRegimeRHSplit(context.Background(), f, 78, 1); ok {
		t.Error("humid-harmful pattern should be rejected")
	}
	// Too few hot rows.
	tiny := f.Filter(func(r int) bool { return r < 100 })
	if _, ok := hotRegimeRHSplit(context.Background(), tiny, 78, 1); ok {
		t.Error("tiny hot regime should be rejected")
	}
}

func TestAnalyzeCustomConfig(t *testing.T) {
	f := rackDayFrame(t)
	// A deliberately tiny tree: analysis must still run and produce
	// groups, with thresholds possibly NaN.
	res, err := Analyze(f, cart.Config{MaxDepth: 2, MinSplit: 50000, MinLeaf: 20000, CP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// Fallback thresholds keep the group construction meaningful.
	for _, g := range res.Groups {
		if g.All.N == 0 {
			t.Errorf("%s: empty All group", g.DC)
		}
	}
}

// TestAnalyzeHonorsSplitPolicy pins that the caller's split policy and
// bin cap reach both fits when AnalyzeContext supplies its own growth
// limits: two-bin histograms must grow other trees than the exact
// search does on the same rows.
func TestAnalyzeHonorsSplitPolicy(t *testing.T) {
	f := rackDayFrame(t).Filter(func(r int) bool { return r%3 == 0 })
	exact, err := Analyze(f, cart.Config{Split: cart.SplitExact})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Analyze(f, cart.Config{Split: cart.SplitBinned, Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Tree.String() == exact.Tree.String() {
		t.Error("two-bin split policy did not reach the MF tree")
	}
	if coarse.EnvTree.String() == exact.EnvTree.String() {
		t.Error("two-bin split policy did not reach the environment tree")
	}
}

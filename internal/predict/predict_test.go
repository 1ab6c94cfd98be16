package predict

import (
	"math"
	"slices"
	"sort"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/rng"
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
		Seed:            17,
		Days:            365,
		Topology:        topology.Config{RacksPerDC: [2]int{80, 70}},
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

func TestTrainEndToEnd(t *testing.T) {
	f := rackDayFrame(t)
	res, err := Train(f, Config{Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainRows == 0 || res.TestRows == 0 {
		t.Fatalf("splits = %d/%d", res.TrainRows, res.TestRows)
	}
	m := res.Metrics
	// A multi-factor model must beat chance: the planted structure
	// (region, SKU, age, workload) is strongly informative.
	if m.AUC < 0.6 {
		t.Errorf("AUC = %v, want > 0.6", m.AUC)
	}
	if m.Recall == 0 && m.Precision == 0 {
		t.Error("degenerate classifier: never alarms")
	}
	if m.TP+m.FP+m.TN+m.FN != res.TestRows {
		t.Error("confusion matrix does not partition the test set")
	}
	if m.PositiveRate <= 0 || m.PositiveRate > 0.5 {
		t.Errorf("positive rate = %v; failures should be a minority", m.PositiveRate)
	}
	if len(res.Importance) == 0 {
		t.Error("no importance ranking")
	}
}

func TestBalancingImprovesRecall(t *testing.T) {
	f := rackDayFrame(t)
	unbal, err := Train(f, Config{Balance: false})
	if err != nil {
		t.Fatal(err)
	}
	bal, err := Train(f, Config{Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	// The imbalance motivates the paper's pre-processing remark: with
	// balancing, recall must not get worse (typically it improves a lot).
	if bal.Metrics.Recall < unbal.Metrics.Recall-1e-9 {
		t.Errorf("balanced recall %v < unbalanced %v", bal.Metrics.Recall, unbal.Metrics.Recall)
	}
}

func TestTrainErrors(t *testing.T) {
	f := rackDayFrame(t)
	if _, err := Train(f, Config{TrainFraction: 1.5}); err == nil {
		t.Error("bad train fraction should error")
	}
	empty := frame.New(2)
	if err := empty.AddContinuous("day", []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(empty, Config{}); err == nil {
		t.Error("missing failures column should error")
	}
	noday := frame.New(1)
	if err := noday.AddContinuous("failures", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(noday, Config{}); err == nil {
		t.Error("missing day column should error")
	}
}

func TestEvaluateConfusion(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 0, 1, 0}
	m, err := Evaluate(scores, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Errorf("confusion = %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.Accuracy != 0.5 {
		t.Errorf("metrics = %+v", m)
	}
	if math.Abs(m.F1-0.5) > 1e-12 {
		t.Errorf("F1 = %v", m.F1)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []int{1, 0}, 0.5); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Evaluate(nil, nil, 0.5); err == nil {
		t.Error("empty set should error")
	}
}

func TestAUCProperties(t *testing.T) {
	// Perfect separation: AUC = 1.
	if got := auc([]float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0}); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	// Perfectly inverted: AUC = 0.
	if got := auc([]float64{0.1, 0.2, 0.8, 0.9}, []int{1, 1, 0, 0}); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	// All-tied scores: AUC = 0.5.
	if got := auc([]float64{0.5, 0.5, 0.5, 0.5}, []int{1, 0, 1, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", got)
	}
	// Single-class labels: defined as 0.5.
	if got := auc([]float64{0.1, 0.9}, []int{1, 1}); got != 0.5 {
		t.Errorf("single-class AUC = %v", got)
	}
}

func TestDownsample(t *testing.T) {
	labels := make([]int, 100)
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = i
		if i < 10 {
			labels[i] = 1
		}
	}
	src := rng.New(1)
	out := downsample(rows, labels, 2, src)
	pos, neg := 0, 0
	for _, r := range out {
		if labels[r] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos != 10 {
		t.Errorf("positives dropped: %d", pos)
	}
	if neg != 20 {
		t.Errorf("negatives = %d, want 20", neg)
	}
	// Ratio larger than available negatives: keep everything.
	all := downsample(rows, labels, 100, src)
	if len(all) != 100 {
		t.Errorf("over-ratio downsample dropped rows: %d", len(all))
	}
}

// refDownsample is the sort-based downsample the marking walk
// replaced, kept as the reference it is checked against.
func refDownsample(rows []int, labels []int, ratio float64, src *rng.Source) []int {
	var pos, neg []int
	for _, r := range rows {
		if labels[r] == 1 {
			pos = append(pos, r)
		} else {
			neg = append(neg, r)
		}
	}
	keep := int(float64(len(pos)) * ratio)
	if keep >= len(neg) || len(pos) == 0 {
		return rows
	}
	src.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	out := append(append([]int(nil), pos...), neg[:keep]...)
	sort.Ints(out)
	return out
}

// TestDownsampleMatchesSortedReference checks that downsample keeps the
// same rows in the same order as refDownsample for the same draws, on
// seeded ascending row sets that skip frame rows: ratios 1 and 3, no
// positives, all positives, and a ratio that keeps every negative.
func TestDownsampleMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		n := 1 + src.IntN(2000)
		posRate := []float64{0.05, 0.25, 0, 1}[seed%4]
		labels := make([]int, n)
		var rows []int
		for r := range labels {
			if src.Float64() < posRate {
				labels[r] = 1
			}
			if src.Float64() < 0.8 {
				rows = append(rows, r)
			}
		}
		for _, ratio := range []float64{1, 3, 1e6} {
			got := downsample(rows, labels, ratio, rng.New(seed).Split("balance"))
			want := refDownsample(rows, labels, ratio, rng.New(seed).Split("balance"))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d ratio %v (positive rate %v): kept rows differ from the sorted reference", seed, ratio, posRate)
			}
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	f := rackDayFrame(t)
	a, err := Train(f, Config{Balance: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(f, Config{Balance: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("metrics differ across identical runs: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

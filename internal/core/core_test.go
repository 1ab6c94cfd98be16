package core

import (
	"math"
	"testing"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// groupedFrame: rows belong to 3 latent groups defined by (dc, power)
// with distinct target levels.
func groupedFrame(t *testing.T, n int) *frame.Frame {
	t.Helper()
	src := rng.New(21)
	dc := make([]int, n)
	power := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		dc[i] = src.IntN(2)
		power[i] = []float64{4, 8, 13}[src.IntN(3)]
		switch {
		case dc[i] == 0 && power[i] >= 12:
			y[i] = 10
		case dc[i] == 0:
			y[i] = 5
		default:
			y[i] = 1
		}
		y[i] += src.NormFloat64() * 0.2
	}
	f := frame.New(n)
	if err := f.AddNominalInts("dc", dc, []string{"DC1", "DC2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("power", power); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestClusterRecoversGroups(t *testing.T) {
	f := groupedFrame(t, 600)
	c, err := Cluster(f, "y", []string{"dc", "power"}, cart.Config{MaxDepth: 4, CP: 0.005}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", c.NumClusters())
	}
	// All rows of a cluster share (roughly) one target level.
	y := f.MustCol("y").Data
	for ci, members := range c.Members {
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range members {
			if y[r] < lo {
				lo = y[r]
			}
			if y[r] > hi {
				hi = y[r]
			}
		}
		if hi-lo > 2 {
			t.Errorf("cluster %d spans %v..%v; groups not homogeneous", ci, lo, hi)
		}
	}
	// Assignment and Members must agree.
	for ci, members := range c.Members {
		for _, r := range members {
			if c.Assignment[r] != ci {
				t.Fatal("Assignment/Members mismatch")
			}
		}
	}
	if c.Importance["dc"] == 0 || c.Importance["power"] == 0 {
		t.Errorf("importance = %v", c.Importance)
	}
	desc, err := c.Describe(0)
	if err != nil || desc == "" {
		t.Errorf("Describe = %q, %v", desc, err)
	}
}

func TestClusterMaxLeaves(t *testing.T) {
	f := groupedFrame(t, 600)
	c, err := Cluster(f, "y", []string{"dc", "power"}, cart.Config{MaxDepth: 6, CP: 0.0001, MinSplit: 4, MinLeaf: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() > 2 {
		t.Errorf("clusters = %d, want <= 2", c.NumClusters())
	}
}

func TestClusterErrors(t *testing.T) {
	f := groupedFrame(t, 50)
	if _, err := Cluster(f, "nope", []string{"dc"}, cart.Config{}, 0); err == nil {
		t.Error("missing metric should error")
	}
}

func TestClusterCV(t *testing.T) {
	f := groupedFrame(t, 600)
	c, err := ClusterCV(f, "y", []string{"dc", "power"}, cart.Config{MaxDepth: 5, MinSplit: 8, MinLeaf: 4}, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The three latent groups are strong signal: CV must keep them.
	if c.NumClusters() < 3 {
		t.Errorf("CV clustering found %d clusters, want >= 3", c.NumClusters())
	}
	if _, err := ClusterCV(f, "nope", []string{"dc"}, cart.Config{}, 10, 5, 1); err == nil {
		t.Error("missing metric should error")
	}
}

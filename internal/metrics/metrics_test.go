package metrics

import (
	"testing"

	"rainshine/internal/failure"
	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

func smallResult(t *testing.T) *simulate.Result {
	t.Helper()
	res, err := simulate.Run(simulate.Config{
		Seed:            11,
		Days:            120,
		Topology:        topology.Config{RacksPerDC: [2]int{40, 30}},
		SkipNonHardware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWindowDistBasics(t *testing.T) {
	d := WindowDist{Counts: []int64{90, 8, 2}, Windows: 100}
	if d.Max() != 2 {
		t.Errorf("Max = %d", d.Max())
	}
	empty := WindowDist{}
	if empty.Max() != 0 {
		t.Error("empty dist should have max 0")
	}
}

func TestMuDistributionsShape(t *testing.T) {
	res := smallResult(t)
	dists, err := MuDistributions(res, []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther}, Daily)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != len(res.Fleet.Racks) {
		t.Fatalf("dists = %d racks", len(dists))
	}
	totalWindows := 0
	sawFailures := false
	for ri, d := range dists {
		rack := &res.Fleet.Racks[ri]
		expect := res.Days
		if rack.CommissionDay > 0 {
			expect = res.Days - rack.CommissionDay
		}
		if d.Windows != expect {
			t.Fatalf("rack %d windows = %d, want %d", ri, d.Windows, expect)
		}
		totalWindows += d.Windows
		if d.Max() > 0 {
			sawFailures = true
		}
		if d.Max() > rack.Servers*3 {
			t.Fatalf("rack %d daily mu %d absurd vs %d servers", ri, d.Max(), rack.Servers)
		}
	}
	if !sawFailures {
		t.Fatal("no rack saw failures")
	}
	_ = totalWindows
}

func TestMuEventCountConsistency(t *testing.T) {
	// Every event must contribute at least one window occupancy: the
	// sum over windows of mu >= number of events (equality when no
	// repair crosses a window boundary, which never holds for hourly).
	res := smallResult(t)
	dists, err := MuDistributions(res, []failure.Component{failure.Disk}, Daily)
	if err != nil {
		t.Fatal(err)
	}
	var occupancy int64
	for _, d := range dists {
		for c, n := range d.Counts {
			occupancy += int64(c) * n
		}
	}
	diskEvents := 0
	for _, ev := range res.Events {
		if ev.Component == failure.Disk {
			diskEvents++
		}
	}
	if occupancy < int64(diskEvents) {
		t.Errorf("occupancy %d < disk events %d", occupancy, diskEvents)
	}
}

func TestHourlyRequirementNotAboveDaily(t *testing.T) {
	res := smallResult(t)
	comps := []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther}
	daily, err := MuDistributions(res, comps, Daily)
	if err != nil {
		t.Fatal(err)
	}
	hourly, err := MuDistributions(res, comps, Hourly)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range daily {
		if hourly[ri].Max() > daily[ri].Max() {
			t.Fatalf("rack %d hourly max %d > daily max %d (temporal multiplexing violated)",
				ri, hourly[ri].Max(), daily[ri].Max())
		}
	}
}

func TestMuDistributionsErrors(t *testing.T) {
	res := smallResult(t)
	if _, err := MuDistributions(res, nil, Daily); err == nil {
		t.Error("no components should error")
	}
	if _, err := MuDistributions(res, []failure.Component{failure.Component(99)}, Daily); err == nil {
		t.Error("invalid component should error")
	}
}

func TestGranularityString(t *testing.T) {
	if Daily.String() != "daily" || Hourly.String() != "hourly" {
		t.Error("Granularity.String broken")
	}
}

func TestRackDayFrame(t *testing.T) {
	res := smallResult(t)
	f, err := RackDayFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rows: sum over racks of observed days.
	want := 0
	for i := range res.Fleet.Racks {
		from := res.Fleet.Racks[i].CommissionDay
		if from < 0 {
			from = 0
		}
		if from < res.Days {
			want += res.Days - from
		}
	}
	if f.NumRows() != want {
		t.Fatalf("rows = %d, want %d", f.NumRows(), want)
	}
	for _, name := range []string{"temp", "rh", "age_months", "power_kw", "dc", "region", "sku", "workload", "dow", "month", "year", "failures", "disk_failures", "mem_failures", "server_failures"} {
		if _, err := f.Col(name); err != nil {
			t.Errorf("missing column: %v", err)
		}
	}
	// Total failures in frame must equal total events.
	total := 0.0
	for _, v := range f.MustCol("failures").Data {
		total += v
	}
	if int(total) != len(res.Events) {
		t.Errorf("frame failures %d != events %d", int(total), len(res.Events))
	}
	// Ages must be non-negative for observed rows.
	for _, a := range f.MustCol("age_months").Data {
		if a < 0 {
			t.Fatal("negative age in observed row")
		}
	}
	// disk+mem+server == failures rowwise (spot check).
	d := f.MustCol("disk_failures").Data
	m := f.MustCol("mem_failures").Data
	s := f.MustCol("server_failures").Data
	all := f.MustCol("failures").Data
	for r := 0; r < f.NumRows(); r += 997 {
		if d[r]+m[r]+s[r] != all[r] {
			t.Fatalf("row %d component sums mismatch", r)
		}
	}
}

func TestRackFeatureFrame(t *testing.T) {
	res := smallResult(t)
	f, err := RackFeatureFrame(res.Fleet, res.Days)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != len(res.Fleet.Racks) {
		t.Fatalf("rows = %d", f.NumRows())
	}
	c := f.MustCol("region")
	// Region levels must cover both DCs' regions: 4 + 3.
	if len(c.Levels) != 7 {
		t.Errorf("region levels = %v", c.Levels)
	}
	if c.Levels[0] != "DC1-1" || c.Levels[4] != "DC2-1" {
		t.Errorf("region labels = %v", c.Levels)
	}
}

func TestCoarserGranularityNeedsMoreSpares(t *testing.T) {
	// mu-max is monotone in window size: a weekly window sees every
	// device a daily window saw, and more.
	res := smallResult(t)
	comps := []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther}
	var prev []WindowDist
	for _, g := range []Granularity{Hourly, Daily, Weekly, Monthly} {
		cur, err := MuDistributions(res, comps, g)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for ri := range cur {
				if cur[ri].Max() < prev[ri].Max() {
					t.Fatalf("%v: rack %d max %d below finer granularity's %d",
						g, ri, cur[ri].Max(), prev[ri].Max())
				}
			}
		}
		for ri := range cur {
			if cur[ri].Windows < 0 {
				t.Fatalf("%v: rack %d negative window count", g, ri)
			}
		}
		prev = cur
	}
}

func TestGranularityStringAll(t *testing.T) {
	for g, want := range map[Granularity]string{
		Hourly: "hourly", Daily: "daily", Weekly: "weekly", Monthly: "monthly",
	} {
		if g.String() != want {
			t.Errorf("%d.String() = %q", g, g.String())
		}
	}
	if Granularity(9).String() != "Granularity(9)" {
		t.Error("unknown granularity string")
	}
}

func TestMTTR(t *testing.T) {
	res := smallResult(t)
	mttr := MTTR(res)
	for _, c := range []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther} {
		s, ok := mttr[c]
		if !ok || s.N == 0 {
			t.Fatalf("no MTTR for %v", c)
		}
		if s.P50 < 0.5 || s.P50 > 48 {
			t.Errorf("%v median repair %vh implausible", c, s.P50)
		}
		if s.P95 < s.P50 {
			t.Errorf("%v p95 below median", c)
		}
	}
}

func TestGroupMuDistributionsBasics(t *testing.T) {
	res := smallResult(t)
	comps := []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther}
	// Group by DC.
	dists, err := GroupMuDistributions(res, comps, Daily,
		func(r int) int { return res.Fleet.Racks[r].DC }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 2 {
		t.Fatalf("groups = %d", len(dists))
	}
	// DC-level max is bounded below by any member rack's max and above
	// by the sum of member maxima.
	perRack, err := MuDistributions(res, comps, Daily)
	if err != nil {
		t.Fatal(err)
	}
	sumMax := [2]int{}
	maxMax := [2]int{}
	for ri := range perRack {
		dc := res.Fleet.Racks[ri].DC
		m := perRack[ri].Max()
		sumMax[dc] += m
		if m > maxMax[dc] {
			maxMax[dc] = m
		}
	}
	for dc := 0; dc < 2; dc++ {
		g := dists[dc].Max()
		if g < maxMax[dc] || g > sumMax[dc] {
			t.Errorf("DC%d group max %d outside [%d, %d]", dc+1, g, maxMax[dc], sumMax[dc])
		}
	}
	// Excluded racks (negative group) must not contribute.
	only0, err := GroupMuDistributions(res, comps, Daily, func(r int) int {
		if res.Fleet.Racks[r].DC == 0 {
			return 0
		}
		return -1
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if only0[0].Max() != dists[0].Max() {
		t.Errorf("exclusion changed DC1 max: %d vs %d", only0[0].Max(), dists[0].Max())
	}
}

func TestCommissionYearIndexBounds(t *testing.T) {
	cases := []struct {
		day, want int
	}{
		{-5 * 365, 0},
		{-10000, 0}, // clamps low
		{-365, 4},
		{0, 5},
		{10000, 5}, // clamps high
	}
	for _, c := range cases {
		if got := commissionYearIndex(c.day); got != c.want {
			t.Errorf("commissionYearIndex(%d) = %d, want %d", c.day, got, c.want)
		}
	}
}

package failure

import (
	"testing"

	"rainshine/internal/climate"
	"rainshine/internal/rng"
	"rainshine/internal/topology"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	fleet, err := topology.Build(rng.New(1), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(fleet, DefaultParams())
}

func mild() climate.Conditions { return climate.Conditions{TempF: 68, RH: 45} }

func TestComponentString(t *testing.T) {
	if Disk.String() != "disk" || DIMM.String() != "memory" || ServerOther.String() != "server" {
		t.Error("Component.String broken")
	}
	if Component(99).String() != "unknown" {
		t.Error("unknown component string")
	}
}

func TestBathtub(t *testing.T) {
	m := testModel(t)
	// Infant mortality: hazard at 1 month far above 24 months.
	if m.Bathtub(1) < 1.5*m.Bathtub(24) {
		t.Errorf("infant %v vs mid-life %v", m.Bathtub(1), m.Bathtub(24))
	}
	// Wear-out: 60 months above 36 months.
	if m.Bathtub(60) <= m.Bathtub(36) {
		t.Errorf("wear-out %v vs mid-life %v", m.Bathtub(60), m.Bathtub(36))
	}
	// Pre-commission age: zero hazard.
	if m.Bathtub(-1) != 0 {
		t.Errorf("negative age multiplier = %v", m.Bathtub(-1))
	}
}

func TestEnvMultiplierDisk(t *testing.T) {
	m := testModel(t)
	base := m.EnvMultiplier(Disk, mild())
	hot := m.EnvMultiplier(Disk, climate.Conditions{TempF: 80, RH: 45})
	hotDry := m.EnvMultiplier(Disk, climate.Conditions{TempF: 80, RH: 20})
	if hot <= base {
		t.Errorf("hot %v <= base %v", hot, base)
	}
	// The step at 78F is at least HotFactor.
	if hot/base < 1.5 {
		t.Errorf("hot/base = %v, want >= 1.5", hot/base)
	}
	// Dry adds another 1.25x.
	if hotDry/hot < 1.2 {
		t.Errorf("hotDry/hot = %v, want ~1.25", hotDry/hot)
	}
	// Dryness alone (cool) has no effect.
	coolDry := m.EnvMultiplier(Disk, climate.Conditions{TempF: 68, RH: 10})
	if coolDry != base {
		t.Errorf("cool-dry %v != base %v", coolDry, base)
	}
}

func TestEnvMultiplierOtherComponents(t *testing.T) {
	m := testModel(t)
	if m.EnvMultiplier(ServerOther, climate.Conditions{TempF: 90, RH: 5}) != 1 {
		t.Error("server env multiplier should be 1")
	}
	if m.EnvMultiplier(DIMM, climate.Conditions{TempF: 85, RH: 40}) <= 1 {
		t.Error("DIMM should have token hot sensitivity")
	}
	if m.EnvMultiplier(DIMM, mild()) != 1 {
		t.Error("DIMM mild multiplier should be 1")
	}
}

func TestCommonMultiplierFactors(t *testing.T) {
	m := testModel(t)
	base := topology.Rack{DC: 1, Region: 0, SKU: topology.S5, Workload: topology.W1, PowerKW: 8, CommissionDay: -365}
	// Weekday (day 2 = Tue) vs weekend (day 0 = Sun).
	wk := m.CommonMultiplier(&base, 2)
	we := m.CommonMultiplier(&base, 0)
	if wk <= we {
		t.Errorf("weekday %v <= weekend %v", wk, we)
	}
	// DC1 hot region exceeds DC2 for an otherwise identical rack, same day.
	hot := base
	hot.DC, hot.Region = 0, 0
	if m.CommonMultiplier(&hot, 2) <= m.CommonMultiplier(&base, 2) {
		t.Error("DC1 region 0 should exceed DC2 region 0")
	}
	// Power above the knee raises hazard.
	dense := base
	dense.PowerKW = 15
	if m.CommonMultiplier(&dense, 2) <= m.CommonMultiplier(&base, 2) {
		t.Error("15kW rack should exceed 8kW rack")
	}
	// W2 > W3.
	w2, w3 := base, base
	w2.Workload, w3.Workload = topology.W2, topology.W3
	if m.CommonMultiplier(&w2, 2) <= m.CommonMultiplier(&w3, 2) {
		t.Error("W2 should exceed W3")
	}
	// Second half of year exceeds first (same weekday: day 9 = Mon Jan,
	// day 247 = Mon Sep 2012).
	if m.CommonMultiplier(&base, 247) <= m.CommonMultiplier(&base, 9) {
		t.Error("September should exceed January")
	}
}

func TestStressMultiplier(t *testing.T) {
	if stressMultiplier(0.5) != 1 {
		t.Errorf("neutral point = %v", stressMultiplier(0.5))
	}
	if stressMultiplier(1.0) <= stressMultiplier(0.5) {
		t.Error("full load should stress more than half load")
	}
	if stressMultiplier(0.0) >= 1 {
		t.Error("idle should stress less than neutral")
	}
	// Clamping.
	if stressMultiplier(5) != stressMultiplier(1) {
		t.Error("over-unity utilization should clamp")
	}
	if stressMultiplier(-3) != stressMultiplier(0) {
		t.Error("negative utilization should clamp")
	}
}

func TestSKUIntrinsicRatio(t *testing.T) {
	p := DefaultParams()
	ratio := p.SKU[topology.S2] / p.SKU[topology.S4]
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("intrinsic S2/S4 = %v, want ~4 (the paper's MF finding)", ratio)
	}
}

func TestDeviceAndRackHazard(t *testing.T) {
	m := testModel(t)
	rack := &m.Fleet.Racks[0]
	day := 100
	common := m.CommonMultiplier(rack, day)
	for c := Disk; c < NumComponents; c++ {
		dh := m.DeviceHazard(c, common, mild())
		if dh <= 0 || dh > 0.01 {
			t.Errorf("%v device hazard = %v out of sane range", c, dh)
		}
	}
	// Rack hazard = device hazard x device count.
	dh := m.DeviceHazard(Disk, common, mild())
	rh := m.RackHazard(Disk, rack, common, mild())
	if want := dh * float64(rack.Disks()); rh != want {
		t.Errorf("rack hazard %v != %v", rh, want)
	}
	rhS := m.RackHazard(ServerOther, rack, common, mild())
	if want := m.DeviceHazard(ServerOther, common, mild()) * float64(rack.Servers); rhS != want {
		t.Errorf("server rack hazard %v != %v", rhS, want)
	}
}

func TestPreCommissionNoHazard(t *testing.T) {
	m := testModel(t)
	rack := topology.Rack{DC: 0, Region: 0, SKU: topology.S1, Workload: topology.W6, PowerKW: 8, CommissionDay: 500, Servers: 20, DisksPerServer: 12, DIMMsPerServer: 8}
	if h := m.DeviceHazard(Disk, m.CommonMultiplier(&rack, 100), mild()); h != 0 {
		t.Errorf("pre-commission hazard = %v, want 0", h)
	}
	if p := m.ShockProbability(&rack, 100); p != 0 {
		t.Errorf("pre-commission shock prob = %v, want 0", p)
	}
}

func TestShockStructure(t *testing.T) {
	m := testModel(t)
	day := 200
	// Storage: old high-power S3 racks shock far more than mid-life
	// low-power S1.
	bad := topology.Rack{DC: 1, Region: 0, SKU: topology.S3, Workload: topology.W6, PowerKW: 12, CommissionDay: day - 55*30}
	good := topology.Rack{DC: 1, Region: 0, SKU: topology.S1, Workload: topology.W6, PowerKW: 6, CommissionDay: day - 24*30}
	if m.ShockProbability(&bad, day) < 5*m.ShockProbability(&good, day) {
		t.Errorf("storage shock contrast too weak: %v vs %v",
			m.ShockProbability(&bad, day), m.ShockProbability(&good, day))
	}
	// Compute: DC1 region0 racks shock more than DC2.
	hot := topology.Rack{DC: 0, Region: 0, SKU: topology.S2, Workload: topology.W1, PowerKW: 13, CommissionDay: day - 700}
	cool := topology.Rack{DC: 1, Region: 1, SKU: topology.S4, Workload: topology.W1, PowerKW: 13, CommissionDay: day - 700}
	if m.ShockProbability(&hot, day) < 3*m.ShockProbability(&cool, day) {
		t.Errorf("compute shock contrast too weak: %v vs %v",
			m.ShockProbability(&hot, day), m.ShockProbability(&cool, day))
	}
	// Severity: storage shocks are bigger than compute shocks.
	if m.ShockSeverity(&bad) <= m.ShockSeverity(&hot) {
		t.Errorf("storage severity %v <= compute severity %v",
			m.ShockSeverity(&bad), m.ShockSeverity(&hot))
	}
	// All severities are sane fractions.
	for i := range m.Fleet.Racks {
		s := m.ShockSeverity(&m.Fleet.Racks[i])
		if s <= 0 || s > 0.9 {
			t.Fatalf("severity %v out of (0,0.9]", s)
		}
	}
}

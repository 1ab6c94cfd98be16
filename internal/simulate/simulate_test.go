package simulate

import (
	"context"
	"errors"
	"math"
	"testing"

	"rainshine/internal/failure"
	"rainshine/internal/ticket"
	"rainshine/internal/topology"
)

// smallCfg returns a fast configuration for tests: a reduced fleet over
// one year.
func smallCfg() Config {
	return Config{
		Seed:     7,
		Days:     365,
		Topology: topology.Config{RacksPerDC: [2]int{60, 50}},
	}
}

func runSmall(t *testing.T) *Result {
	t.Helper()
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesEvents(t *testing.T) {
	res := runSmall(t)
	if len(res.Events) == 0 {
		t.Fatal("no events produced")
	}
	if len(res.Tickets) <= len(res.Events) {
		t.Errorf("tickets (%d) should exceed hardware events (%d) once software tickets are added",
			len(res.Tickets), len(res.Events))
	}
}

func TestEventFieldsValid(t *testing.T) {
	res := runSmall(t)
	for _, ev := range res.Events {
		if ev.Rack < 0 || int(ev.Rack) >= len(res.Fleet.Racks) {
			t.Fatalf("event rack %d out of range", ev.Rack)
		}
		if ev.Day < 0 || int(ev.Day) >= res.Days {
			t.Fatalf("event day %d out of range", ev.Day)
		}
		if ev.Hour < 0 || ev.Hour >= 26.1 { // shocks may spill slightly past midnight
			t.Fatalf("event hour %v out of range", ev.Hour)
		}
		if ev.RepairHours < 0.5 || ev.RepairHours > maxRepairHours {
			t.Fatalf("repair hours %v out of range", ev.RepairHours)
		}
		if ev.Component < 0 || ev.Component >= failure.NumComponents {
			t.Fatalf("component %d invalid", ev.Component)
		}
		rack := &res.Fleet.Racks[ev.Rack]
		if int(ev.Day) < rack.CommissionDay {
			t.Fatalf("event before rack commission: day %d < %d", ev.Day, rack.CommissionDay)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runSmall(t)
	b := runSmall(t)
	if len(a.Events) != len(b.Events) || len(a.Tickets) != len(b.Tickets) {
		t.Fatalf("sizes differ: %d/%d events, %d/%d tickets",
			len(a.Events), len(b.Events), len(a.Tickets), len(b.Tickets))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	for i := range a.Tickets {
		if a.Tickets[i] != b.Tickets[i] {
			t.Fatalf("ticket %d differs", i)
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg := smallCfg()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == len(b.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical event streams")
		}
	}
}

func TestTicketMixRoughlyMatchesTableII(t *testing.T) {
	res := runSmall(t)
	for dc := 0; dc < 2; dc++ {
		mix := ticket.Mix(res.Tickets, dc)
		paper := ticket.PaperMix(dc)
		// Category-level agreement within generous tolerance: the
		// hardware fraction is emergent from the hazard model, the rest
		// is calibrated.
		var gotHW, wantHW, gotSW, wantSW float64
		for f := ticket.Timeout; f < ticket.NumFaults; f++ {
			switch ticket.CategoryOf(f) {
			case ticket.Hardware:
				gotHW += mix[f]
				wantHW += paper[f]
			case ticket.Software:
				gotSW += mix[f]
				wantSW += paper[f]
			}
		}
		if math.Abs(gotHW-wantHW) > 6 {
			t.Errorf("DC%d hardware share = %.1f%%, paper %.1f%%", dc+1, gotHW, wantHW)
		}
		if math.Abs(gotSW-wantSW) > 6 {
			t.Errorf("DC%d software share = %.1f%%, paper %.1f%%", dc+1, gotSW, wantSW)
		}
		// Disk must lead the hardware categories (Table II).
		if mix[ticket.DiskFailure] < mix[ticket.MemoryFailure] {
			t.Errorf("DC%d: disk (%.1f%%) should exceed memory (%.1f%%)",
				dc+1, mix[ticket.DiskFailure], mix[ticket.MemoryFailure])
		}
	}
}

func TestFalsePositiveInjectionAndFiltering(t *testing.T) {
	res := runSmall(t)
	fp := 0
	for _, tk := range res.Tickets {
		if tk.FalsePositive {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("no false positives injected")
	}
	frac := float64(fp) / float64(len(res.Tickets))
	if frac < 0.02 || frac > 0.08 {
		t.Errorf("false positive fraction = %v, want ~0.05", frac)
	}
	if got := len(ticket.TruePositives(res.Tickets)); got != len(res.Tickets)-fp {
		t.Errorf("TruePositives = %d, want %d", got, len(res.Tickets)-fp)
	}
}

func TestSkipNonHardware(t *testing.T) {
	cfg := smallCfg()
	cfg.SkipNonHardware = true
	cfg.FalsePositiveRate = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tickets) != len(res.Events) {
		t.Errorf("tickets %d != events %d with non-hardware skipped", len(res.Tickets), len(res.Events))
	}
	for _, tk := range res.Tickets {
		if tk.Category() != ticket.Hardware {
			t.Fatal("non-hardware ticket produced despite SkipNonHardware")
		}
	}
}

func TestShockEventsExist(t *testing.T) {
	res := runSmall(t)
	shocks := map[failure.Component]int{}
	for _, ev := range res.Events {
		if ev.Shock {
			if ev.Component == failure.DIMM {
				t.Fatal("shock event with DIMM component")
			}
			shocks[ev.Component]++
		}
	}
	// Both shock flavours must occur: server batches (storage racks)
	// and disk storms (compute racks).
	if shocks[failure.ServerOther] == 0 || shocks[failure.Disk] == 0 {
		t.Fatalf("shock mix = %v; want both server and disk shocks", shocks)
	}
}

func TestDiskEventsDominate(t *testing.T) {
	res := runSmall(t)
	counts := map[failure.Component]int{}
	for _, ev := range res.Events {
		counts[ev.Component]++
	}
	if counts[failure.Disk] <= counts[failure.DIMM] {
		t.Errorf("disk events (%d) should exceed DIMM events (%d)",
			counts[failure.Disk], counts[failure.DIMM])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Days: -5}); err == nil {
		t.Error("negative days should error")
	}
}

func TestIsWeekendFastMatchesCalendar(t *testing.T) {
	// Day 0 is Sunday; verify the fast path across four weeks.
	for d := 0; d < 28; d++ {
		want := d%7 == 0 || d%7 == 6
		if isWeekendFast(d) != want {
			t.Fatalf("isWeekendFast(%d) mismatch", d)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	base := smallCfg()
	var want *Result
	for _, workers := range []int{1, 2, 7, 64} {
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if len(res.Events) != len(want.Events) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(res.Events), len(want.Events))
		}
		for i := range res.Events {
			if res.Events[i] != want.Events[i] {
				t.Fatalf("workers=%d: event %d differs", workers, i)
			}
		}
		if len(res.Tickets) != len(want.Tickets) {
			t.Fatalf("workers=%d: ticket count differs", workers)
		}
	}
}

func TestDeviceIdentityAndRepeats(t *testing.T) {
	res := runSmall(t)
	// Every hardware event names a valid device.
	for _, ev := range res.Events {
		rack := &res.Fleet.Racks[ev.Rack]
		limit := 0
		switch ev.Component {
		case failure.Disk:
			limit = rack.Disks()
		case failure.DIMM:
			limit = rack.DIMMs()
		default:
			limit = rack.Servers
		}
		if ev.Device < 0 || int(ev.Device) >= limit {
			t.Fatalf("device %d out of range [0,%d) for %v", ev.Device, limit, ev.Component)
		}
	}
	stats := ticket.RepeatStats(res.Tickets)
	if stats.Hardware == 0 {
		t.Fatal("no hardware tickets")
	}
	// The imperfect-replacement model must produce repeats, but they
	// stay a minority of the RMA load.
	if stats.Repeats == 0 {
		t.Fatal("no repeat tickets despite refail model")
	}
	if stats.RepeatFraction > 0.4 {
		t.Errorf("repeat fraction %v implausibly high", stats.RepeatFraction)
	}
	if stats.MaxRepeat < 2 {
		t.Errorf("max repeat = %d", stats.MaxRepeat)
	}
	// Repeat numbering is consistent per device: occurrences are dense
	// starting at 1.
	type key struct{ rack, dev, comp int }
	maxOcc := map[key]int{}
	count := map[key]int{}
	for _, tk := range res.Tickets {
		if tk.FalsePositive || tk.Category() != ticket.Hardware {
			continue
		}
		k := key{tk.Rack, tk.Device, int(tk.Component)}
		count[k]++
		if tk.Repeat > maxOcc[k] {
			maxOcc[k] = tk.Repeat
		}
	}
	for k, c := range count {
		if maxOcc[k] != c {
			t.Fatalf("device %v: %d tickets but max repeat %d", k, c, maxOcc[k])
		}
	}
}

// TestNumberRepeatsOrder checks the repeat rule on a hand-built rack
// block: counters run per (component, device) in (day, hour) order, and
// an exact (day, hour) tie goes to the earlier stream position, the
// audit's (day, hour, ID) rule. Simulated streams hold no exact ties, so
// TestSimulationDigest cannot see the tie-break.
func TestNumberRepeatsOrder(t *testing.T) {
	block := []ticket.Ticket{
		{Component: failure.Disk, Device: 3, Day: 5, Hour: 2},
		{Component: failure.Disk, Device: 3, Day: 4, Hour: 9},
		{Component: failure.Disk, Device: 3, Day: 5, Hour: 2},
		{Component: failure.DIMM, Device: 3, Day: 1, Hour: 0},
		{Component: failure.Disk, Device: 7, Day: 5, Hour: 2},
		{Component: failure.Disk, Device: 3, Day: 5, Hour: 1.5},
	}
	numberRepeats(block, nil)
	want := []int{3, 1, 4, 1, 1, 2}
	for i, tk := range block {
		if tk.Repeat != want[i] {
			t.Errorf("ticket %d: Repeat = %d, want %d", i, tk.Repeat, want[i])
		}
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, smallCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// Cancel from another goroutine while the rack walk is running; the
	// run must abort with the context's error, never partial results.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	res, err := RunContext(ctx, smallCfg())
	<-done
	if err == nil {
		// The run may legitimately win the race and finish first; only a
		// cancellation observed mid-run must surface as an error.
		if res == nil {
			t.Fatal("nil result without error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned partial results")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) || len(a.Tickets) != len(b.Tickets) {
		t.Fatalf("RunContext diverges from Run: %d/%d events, %d/%d tickets",
			len(a.Events), len(b.Events), len(a.Tickets), len(b.Tickets))
	}
}

package ticket

import (
	"math"
	"testing"

	"rainshine/internal/failure"
)

func TestCategoryOf(t *testing.T) {
	tests := []struct {
		f    Fault
		want Category
	}{
		{Timeout, Software}, {Deployment, Software}, {Crash, Software},
		{PXEBoot, Boot}, {RebootFailure, Boot},
		{DiskFailure, Hardware}, {MemoryFailure, Hardware},
		{PowerFailure, Hardware}, {ServerFailure, Hardware}, {NetworkFailure, Hardware},
		{OtherFault, Others},
	}
	for _, tt := range tests {
		if got := CategoryOf(tt.f); got != tt.want {
			t.Errorf("CategoryOf(%v) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestStrings(t *testing.T) {
	if Software.String() != "Software" || Hardware.String() != "Hardware" {
		t.Error("Category.String broken")
	}
	if Category(42).String() != "Category(42)" {
		t.Error("unknown category string")
	}
	if DiskFailure.String() != "Disk failure" || Timeout.String() != "Timeout failure" {
		t.Error("Fault.String broken")
	}
	if Fault(42).String() != "Fault(42)" {
		t.Error("unknown fault string")
	}
}

func TestHardwareFaultOf(t *testing.T) {
	if HardwareFaultOf(failure.Disk) != DiskFailure {
		t.Error("disk mapping")
	}
	if HardwareFaultOf(failure.DIMM) != MemoryFailure {
		t.Error("DIMM mapping")
	}
	if HardwareFaultOf(failure.ServerOther) != ServerFailure {
		t.Error("server mapping")
	}
}

func sampleTickets() []Ticket {
	return []Ticket{
		{ID: 0, DC: 0, Fault: DiskFailure},
		{ID: 1, DC: 0, Fault: Timeout},
		{ID: 2, DC: 0, Fault: DiskFailure, FalsePositive: true},
		{ID: 3, DC: 1, Fault: MemoryFailure},
		{ID: 4, DC: 0, Fault: PXEBoot},
		{ID: 5, DC: 0, Fault: OtherFault},
	}
}

func TestTruePositives(t *testing.T) {
	got := TruePositives(sampleTickets())
	if len(got) != 5 {
		t.Fatalf("TruePositives len = %d", len(got))
	}
	for _, tk := range got {
		if tk.FalsePositive {
			t.Fatal("false positive survived filter")
		}
	}
}

func TestMix(t *testing.T) {
	mix := Mix(sampleTickets(), 0)
	// DC0 true positives: disk, timeout, pxe, other = 4 tickets.
	if math.Abs(mix[DiskFailure]-25) > 1e-9 {
		t.Errorf("disk mix = %v, want 25", mix[DiskFailure])
	}
	total := 0.0
	for _, v := range mix {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("mix total = %v", total)
	}
	if len(Mix(nil, 0)) != 0 {
		t.Error("empty mix should be empty")
	}
}

func TestPaperMixSumsTo100(t *testing.T) {
	for dc := 0; dc < 2; dc++ {
		total := 0.0
		for _, v := range PaperMix(dc) {
			total += v
		}
		if math.Abs(total-100) > 0.2 {
			t.Errorf("DC%d paper mix sums to %v", dc+1, total)
		}
	}
}

func TestPaperMixHeadlines(t *testing.T) {
	// Table II headline facts: software timeouts lead, disks lead hardware.
	for dc := 0; dc < 2; dc++ {
		m := PaperMix(dc)
		if m[Timeout] < m[DiskFailure] {
			t.Errorf("DC%d: timeout should exceed disk", dc+1)
		}
		if m[DiskFailure] < m[MemoryFailure] {
			t.Errorf("DC%d: disk should exceed memory", dc+1)
		}
	}
}

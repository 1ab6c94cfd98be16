// Package ticket models the RMA (Return Merchandise Authorization)
// pipeline of Section IV: every detected failure opens a ticket with a
// category and fault type; operators resolve it, marking false positives,
// and only true positives enter the analysis.
package ticket

import (
	"fmt"

	"rainshine/internal/failure"
)

// Category is the coarse ticket classification of Table II.
type Category int

// Ticket categories.
const (
	Software Category = iota
	Boot
	Hardware
	Others
	NumCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Software:
		return "Software"
	case Boot:
		return "Boot"
	case Hardware:
		return "Hardware"
	case Others:
		return "Others"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Fault is the fine-grained fault type of Table II.
type Fault int

// Fault types, in Table II order.
const (
	Timeout Fault = iota
	Deployment
	Crash
	PXEBoot
	RebootFailure
	DiskFailure
	MemoryFailure
	PowerFailure
	ServerFailure
	NetworkFailure
	OtherFault
	NumFaults
)

// String names the fault type as Table II prints it.
func (f Fault) String() string {
	switch f {
	case Timeout:
		return "Timeout failure"
	case Deployment:
		return "Deployment failure"
	case Crash:
		return "Node/Agent crash"
	case PXEBoot:
		return "PXE boot failure"
	case RebootFailure:
		return "Reboot failure"
	case DiskFailure:
		return "Disk failure"
	case MemoryFailure:
		return "Memory failure"
	case PowerFailure:
		return "Power failure"
	case ServerFailure:
		return "Server failure"
	case NetworkFailure:
		return "Network failure"
	case OtherFault:
		return "Others"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// CategoryOf maps a fault type to its Table II category.
func CategoryOf(f Fault) Category {
	switch f {
	case Timeout, Deployment, Crash:
		return Software
	case PXEBoot, RebootFailure:
		return Boot
	case DiskFailure, MemoryFailure, PowerFailure, ServerFailure, NetworkFailure:
		return Hardware
	default:
		return Others
	}
}

// HardwareFaultOf maps a failed component class to the fault type its
// RMA ticket carries. ServerOther faults are subdivided by the caller
// (power/server/network) since the component model does not distinguish
// them.
func HardwareFaultOf(c failure.Component) Fault {
	switch c {
	case failure.Disk:
		return DiskFailure
	case failure.DIMM:
		return MemoryFailure
	default:
		return ServerFailure
	}
}

// Ticket is one RMA record.
type Ticket struct {
	ID    int
	Day   int
	Hour  float64 // onset hour within the day [0, 24)
	DC    int
	Rack  int
	Fault Fault
	// FalsePositive marks tickets where no fault was confirmed; the
	// paper's analysis drops them.
	FalsePositive bool
	// RepairHours is the time the affected device stayed unavailable
	// (hardware tickets only).
	RepairHours float64
	// Component is the failed device class for hardware tickets.
	Component failure.Component
	// Device is the failing unit's index within its rack's component
	// population (hardware tickets only).
	Device int
	// Repeat is the occurrence number of this device's failure within
	// the observation window (1 = first failure, 2+ = the RMA was
	// re-opened for the same unit). Zero for non-hardware tickets.
	Repeat int
}

// Category returns the ticket's Table II category.
func (t *Ticket) Category() Category { return CategoryOf(t.Fault) }

// TruePositives filters out false-positive tickets, which is the first
// step of the paper's analysis pipeline.
func TruePositives(ts []Ticket) []Ticket {
	out := make([]Ticket, 0, len(ts))
	for _, t := range ts {
		if !t.FalsePositive {
			out = append(out, t)
		}
	}
	return out
}

// Mix tabulates the percentage of tickets per fault type for one DC,
// reproducing one column of Table II. False positives are excluded.
func Mix(ts []Ticket, dc int) map[Fault]float64 {
	counts := make(map[Fault]int)
	total := 0
	for _, t := range ts {
		if t.FalsePositive || t.DC != dc {
			continue
		}
		counts[t.Fault]++
		total++
	}
	out := make(map[Fault]float64, len(counts))
	if total == 0 {
		return out
	}
	for f, c := range counts {
		out[f] = 100 * float64(c) / float64(total)
	}
	return out
}

// RepeatStats summarizes the repeat-count field over true-positive
// hardware tickets: how much of the RMA load is the same device bouncing.
type RepeatStatsResult struct {
	Hardware int
	Repeats  int // tickets with Repeat >= 2
	// RepeatFraction = Repeats / Hardware.
	RepeatFraction float64
	// MaxRepeat is the worst single device's failure count.
	MaxRepeat int
}

// RepeatStats computes repeat-ticket statistics.
func RepeatStats(ts []Ticket) RepeatStatsResult {
	var out RepeatStatsResult
	for _, t := range ts {
		if t.FalsePositive || t.Category() != Hardware {
			continue
		}
		out.Hardware++
		if t.Repeat >= 2 {
			out.Repeats++
		}
		if t.Repeat > out.MaxRepeat {
			out.MaxRepeat = t.Repeat
		}
	}
	if out.Hardware > 0 {
		out.RepeatFraction = float64(out.Repeats) / float64(out.Hardware)
	}
	return out
}

// PaperMix returns Table II's published percentages for a DC (0 or 1),
// used by EXPERIMENTS.md to compare generated against reported mixes.
func PaperMix(dc int) map[Fault]float64 {
	if dc == 0 {
		return map[Fault]float64{
			Timeout: 31.27, Deployment: 13.95, Crash: 2.89,
			PXEBoot: 10.53, RebootFailure: 1.25,
			DiskFailure: 18.42, MemoryFailure: 5.29, PowerFailure: 1.59,
			ServerFailure: 2.84, NetworkFailure: 2.52,
			OtherFault: 9.41,
		}
	}
	return map[Fault]float64{
		Timeout: 38.84, Deployment: 14.56, Crash: 3.05,
		PXEBoot: 13.81, RebootFailure: 0.19,
		DiskFailure: 11.23, MemoryFailure: 1.85, PowerFailure: 3.83,
		ServerFailure: 1.21, NetworkFailure: 0.65,
		OtherFault: 10.77,
	}
}

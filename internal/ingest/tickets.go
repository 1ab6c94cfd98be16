package ingest

import (
	"math"
	"math/bits"
	"sort"

	"rainshine/internal/failure"
	"rainshine/internal/ticket"
)

// TicketBounds describe the observation window and fleet extent a
// ticket stream must fit inside. Zero or negative bounds disable the
// corresponding range check (external streams often lack a known fleet).
type TicketBounds struct {
	Days  int
	Racks int
	DCs   int
}

// ValidateTicket classifies one ticket against the taxonomy, returning
// the sentinel error of the first defect found, or nil. Duplicate and
// ordering defects are stream-level and handled by ScrubTickets.
func ValidateTicket(t *ticket.Ticket, b TicketBounds) error {
	if b.Days > 0 && (t.Day < 0 || t.Day >= b.Days) {
		return ErrTicketOutOfRange
	}
	if b.Racks > 0 && (t.Rack < 0 || t.Rack >= b.Racks) {
		return ErrTicketOutOfRange
	}
	if b.DCs > 0 && (t.DC < 0 || t.DC >= b.DCs) {
		return ErrTicketOutOfRange
	}
	if t.Hour < 0 || t.Hour >= 24 || math.IsNaN(t.Hour) {
		return ErrTicketBadHour
	}
	if t.RepairHours < 0 || math.IsNaN(t.RepairHours) || math.IsInf(t.RepairHours, 0) {
		return ErrTicketBadRepair
	}
	if t.Fault < 0 || t.Fault >= ticket.NumFaults {
		return ErrTicketUnknownFault
	}
	return nil
}

// ScrubTickets runs the ticket stage: quarantine invalid records, drop
// exact duplicates, and restore per-device repeat counters that clock
// skew knocked out of time order. The input slice is not modified; the
// returned slice preserves the survivors' original stream order. When
// repair is false the stream is audited — every defect is counted but
// the input is returned unchanged, and no ticket is copied.
//
// One pass finds duplicates through a dedupTable keyed by a hash of the
// ticket content, and the repeat check sorts the hardware survivors
// once (see repairRepeats).
func ScrubTickets(ts []ticket.Ticket, b TicketBounds, rep *Report, repair bool) []ticket.Ticket {
	rep.TicketsIn += len(ts)
	var kept []ticket.Ticket
	if repair {
		kept = make([]ticket.Ticket, 0, len(ts))
	}
	seen := newDedupTable(len(ts))
	// Size the repeat keys once, for every ticket carrying a counter.
	hardware := 0
	for i := range ts {
		if ts[i].Repeat != 0 {
			hardware++
		}
	}
	hw := make([]repeatKey, 0, hardware)
	survivors := 0
	for i := range ts {
		t := &ts[i]
		if err := ValidateTicket(t, b); err != nil {
			rep.Quarantined[classOfTicketErr(err)]++
			continue
		}
		if !seen.insert(ts, i) {
			rep.Quarantined[DuplicateTicket]++
			continue
		}
		if t.Repeat != 0 { // non-hardware tickets carry no counter
			hw = append(hw, repeatKey{t.Rack, t.Component, t.Device, t.Day, t.Hour, t.ID, survivors, t.Repeat})
		}
		if repair {
			kept = append(kept, *t)
		}
		survivors++
	}
	repairRepeats(hw, kept, rep)
	rep.TicketsKept += survivors
	if !repair {
		return ts
	}
	return kept
}

// dedupTable is an open-addressing set of ticket indices with linear
// probing, keyed on content: every field but the ID. Each member's hash
// sits in a side array, so fields are compared only when the hashes
// agree: hashing and comparing whole 88-byte tickets as map keys would
// dominate the audit. Indices stay int: an external stream has no size
// bound.
type dedupTable struct {
	slots  []int    // member ticket index + 1; 0 marks an empty slot
	hashes []uint64 // content hash of each member, by ticket index
	mask   uint64
}

// newDedupTable sizes the table for n tickets: a power of two at least
// twice n, so the load factor stays at or below one half.
func newDedupTable(n int) *dedupTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return &dedupTable{slots: make([]int, size), hashes: make([]uint64, n), mask: uint64(size - 1)}
}

// insert adds ts[i] unless a ticket with the same content is already a
// member, and reports whether it was added. The first occurrence in
// stream order is therefore the one that survives.
func (d *dedupTable) insert(ts []ticket.Ticket, i int) bool {
	t := &ts[i]
	h := contentHash(t)
	for s := h & d.mask; ; s = (s + 1) & d.mask {
		j := d.slots[s] - 1
		if j < 0 {
			d.slots[s] = i + 1
			d.hashes[i] = h
			return true
		}
		if d.hashes[j] == h && sameContent(&ts[j], t) {
			return false
		}
	}
}

// contentHash hashes every ticket field but the ID. Float fields are
// hashed as x+0, which folds −0 onto +0: sameContent compares them with
// ==, under which the two zeros are equal, so they must hash alike. NaN
// needs no case, since ValidateTicket rejects NaN hours and repair times
// before dedup.
func contentHash(t *ticket.Ticket) uint64 {
	h := uint64(t.Day)
	for _, v := range [...]uint64{
		math.Float64bits(t.Hour + 0), uint64(t.DC), uint64(t.Rack), uint64(t.Fault),
		boolBit(t.FalsePositive), math.Float64bits(t.RepairHours + 0),
		uint64(t.Component), uint64(t.Device), uint64(t.Repeat),
	} {
		h = bits.RotateLeft64((h^v)*0x9e3779b97f4a7c15, 29)
	}
	// Final avalanche (MurmurHash3's fmix64), so linear probing sees
	// well-spread low bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sameContent is ticket equality ignoring the ID, field by field with
// Go's == (so −0 equals +0).
func sameContent(a, b *ticket.Ticket) bool {
	return a.Day == b.Day && a.Hour == b.Hour && a.DC == b.DC && a.Rack == b.Rack &&
		a.Fault == b.Fault && a.FalsePositive == b.FalsePositive &&
		a.RepairHours == b.RepairHours && a.Component == b.Component &&
		a.Device == b.Device && a.Repeat == b.Repeat
}

// classOfTicketErr maps a per-ticket sentinel back to its class.
func classOfTicketErr(err error) Class {
	switch err {
	case ErrTicketOutOfRange:
		return TicketOutOfRange
	case ErrTicketBadHour:
		return TicketBadHour
	case ErrTicketBadRepair:
		return TicketBadRepair
	default:
		return TicketUnknownFault
	}
}

// repeatKey is one hardware survivor in the repeat check: its device
// group, its time-order key, its position among the survivors, and the
// counter it carries.
type repeatKey struct {
	rack   int
	comp   failure.Component
	device int
	day    int
	hour   float64
	id     int
	pos    int
	repeat int
}

// repairRepeats restores the RMA re-open counters: within one device's
// ticket group, Repeat must count occurrences in time order. Clock skew
// moves a ticket in time without touching its counter, so an inversion
// (an earlier timestamp carrying a later counter) marks a skewed record.
// Counters are reassigned in time order; clean streams are untouched.
//
// hw holds the hardware survivors (Repeat != 0). One sort by (rack,
// component, device, day, hour, ID, survivor position) lays every group
// out in time order, ties broken by stream position. Every inversion is
// counted; when kept is non-nil (repair mode) the counters are also
// rewritten there, at the keys' survivor positions.
func repairRepeats(hw []repeatKey, kept []ticket.Ticket, rep *Report) {
	sort.Sort(byDeviceTime(hw))
	occ := 0
	for i := range hw {
		k := &hw[i]
		if i > 0 {
			p := &hw[i-1]
			if k.rack != p.rack || k.comp != p.comp || k.device != p.device {
				occ = 0
			}
		}
		occ++
		if k.repeat != occ {
			rep.Repaired[RepeatInversion]++
			if kept != nil {
				kept[k.pos].Repeat = occ
			}
		}
	}
}

// byDeviceTime orders repeat keys by (rack, component, device, day,
// hour, ID, survivor position); positions are unique, so the order is
// total and needs no stable sort. Less reads the keys in place.
type byDeviceTime []repeatKey

func (s byDeviceTime) Len() int      { return len(s) }
func (s byDeviceTime) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byDeviceTime) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	switch {
	case a.rack != b.rack:
		return a.rack < b.rack
	case a.comp != b.comp:
		return a.comp < b.comp
	case a.device != b.device:
		return a.device < b.device
	case a.day != b.day:
		return a.day < b.day
	case a.hour != b.hour:
		// Never NaN here (ValidateTicket); the two zeros are equal.
		return a.hour < b.hour
	case a.id != b.id:
		return a.id < b.id
	}
	return a.pos < b.pos
}

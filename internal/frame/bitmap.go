package frame

import "math/bits"

// Bitmap is a fixed-length bit set, one bit per row. Columns use it to
// mark null cells explicitly instead of relying on NaN sentinels: the
// ingest quarantine/repair pipeline sets bits for cells it rejects, and
// analyses treat a set bit as missing even when the underlying storage
// still carries the (suspect) raw value for forensics.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an empty bitmap covering n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i. Out-of-range indices panic like a slice access.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic("frame: bitmap index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports whether row i is marked. Out-of-range indices are false,
// so a nil-safe wrapper can pass through without bounds juggling.
func (b *Bitmap) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of marked rows.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Any reports whether any row is marked.
func (b *Bitmap) Any() bool {
	if b == nil {
		return false
	}
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return nil
	}
	return &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
}

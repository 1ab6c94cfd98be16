package rainshine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/metrics"
)

// frameDigest hashes a frame's full content: per column, in order, its
// name, kind and level table, then its cells, as uint8 codes for typed
// columns and as float64 bit patterns otherwise.
func frameDigest(f *frame.Frame) string {
	h := sha256.New()
	str := func(s string) {
		binary.Write(h, binary.LittleEndian, uint64(len(s)))
		h.Write([]byte(s))
	}
	binary.Write(h, binary.LittleEndian, uint64(f.NumRows()))
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColAt(i)
		str(c.Name)
		binary.Write(h, binary.LittleEndian, uint64(c.Kind))
		binary.Write(h, binary.LittleEndian, uint64(len(c.Levels)))
		for _, l := range c.Levels {
			str(l)
		}
		if codes := c.Codes(); codes != nil {
			h.Write([]byte{'u'})
			h.Write(codes)
			continue
		}
		h.Write([]byte{'f'})
		var b [8]byte
		for _, v := range c.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRackDayFrameDigest pins the rack-day λ frame byte for byte: every
// column's name, kind, level table and cells, for the reduced clean
// study (`rainshine -small`), the reduced dirty study (`-small
// -faults`) and the paper-scale study. The digests were recorded with
// the earlier serial version that appended rows one at a time; the
// frame must come out the same for any worker count.
func TestRackDayFrameDigest(t *testing.T) {
	clean, dirty := dirtyPair(t)
	cases := []struct {
		name  string
		study func(t *testing.T) *Study
		want  string
	}{
		{"small", func(*testing.T) *Study { return clean }, "c5fdb4eabc9f1780a349bff05c0bdb8c13d1d5143689f3cff4d2b0b7f00ae7de"},
		{"small-faults", func(*testing.T) *Study { return dirty }, "aa5878ab79552c1195a9ff3fbe63fa2a55b2de01ad6c2168bdc3ea3105b1e9ef"},
		{"paper", func(t *testing.T) *Study {
			if testing.Short() {
				t.Skip("paper-scale study skipped in -short")
			}
			s, err := NewStudy(WithSeed(42))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, "3c7eea6f40180a02c0e13dd2b407d0db7b874ca45f9cd2244cb901803a62e1b5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.study(t)
			f, err := s.Figures().RackDays()
			if err != nil {
				t.Fatal(err)
			}
			if got := frameDigest(f); got != tc.want {
				t.Errorf("rack-day frame digest = %s, want %s", got, tc.want)
			}
			// The same result rebuilt at other worker counts.
			for _, w := range []int{1, 3, 8} {
				res := *s.Figures().Res
				res.Cfg.Workers = w
				g, err := metrics.RackDayFrame(&res)
				if err != nil {
					t.Fatal(err)
				}
				if got := frameDigest(g); got != tc.want {
					t.Errorf("workers=%d: rack-day frame digest = %s, want %s", w, got, tc.want)
				}
			}
		})
	}
}

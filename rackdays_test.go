package rainshine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
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

// simulationDigest hashes everything a simulation emits: every field of
// every event and ticket, in stream order (floats as bit patterns), then
// every rack-day climate reading, rack-major.
func simulationDigest(t *testing.T, res *simulate.Result) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	u64(uint64(len(res.Events)))
	for _, ev := range res.Events {
		u64(uint64(ev.Rack))
		u64(uint64(ev.Day))
		f64(ev.Hour)
		u64(uint64(ev.Component))
		f64(ev.RepairHours)
		u64(uint64(ev.Device))
		b(ev.Shock)
		flush()
	}
	u64(uint64(len(res.Tickets)))
	for _, tk := range res.Tickets {
		u64(uint64(tk.ID))
		u64(uint64(tk.Day))
		f64(tk.Hour)
		u64(uint64(tk.DC))
		u64(uint64(tk.Rack))
		u64(uint64(tk.Fault))
		b(tk.FalsePositive)
		f64(tk.RepairHours)
		u64(uint64(tk.Component))
		u64(uint64(tk.Device))
		u64(uint64(tk.Repeat))
		flush()
	}
	u64(uint64(res.Climate.Racks()))
	u64(uint64(res.Climate.Days()))
	for r := 0; r < res.Climate.Racks(); r++ {
		for d := 0; d < res.Climate.Days(); d++ {
			c, err := res.Climate.At(r, d)
			if err != nil {
				t.Fatal(err)
			}
			f64(c.TempF)
			f64(c.RH)
		}
		flush()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulationDigest pins the simulator's output byte for byte: the
// event stream, the ticket stream (hours, repair times, devices, repeat
// counters, fault types, the non-hardware and false-positive tickets)
// and the recorded climate, which neither the frame digest above nor the
// goldens see in full. It covers the reduced clean study (`rainshine
// -small`), the reduced dirty study (`-small -faults`, whose recorded
// streams carry the injected faults) and the paper-scale study, each
// simulated at 1, 3 and 8 workers.
func TestSimulationDigest(t *testing.T) {
	clean, dirty := dirtyPair(t)
	cases := []struct {
		name  string
		paper bool
		cfg   simulate.Config
		want  string
	}{
		{"small", false, clean.Figures().Res.Cfg, "692f326c29220e440659f59c6d19b617fbf31859dc99956ce59828258e8f74d0"},
		{"small-faults", false, dirty.Figures().Res.Cfg, "385aaea6696c950eb9ef86ec8fc28283b50174ef276cc7ef207fdde8c2dfc655"},
		{"paper", true, simulate.Config{Seed: 42}, "491e5cf8ac7f08d649a6dc0c7410bb767e9a649e94102c977844d811b5e256a4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.paper && testing.Short() {
				t.Skip("paper-scale study skipped in -short")
			}
			for _, w := range []int{1, 3, 8} {
				cfg := tc.cfg
				cfg.Workers = w
				res, err := simulate.RunContext(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := simulationDigest(t, res); got != tc.want {
					t.Errorf("workers=%d: simulation digest = %s, want %s", w, got, tc.want)
				}
			}
		})
	}
}

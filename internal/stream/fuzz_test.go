package stream_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"rainshine/internal/simulate"
	"rainshine/internal/stream"
	"rainshine/internal/topology"
)

// fuzzSeedLog builds a tiny valid log for the seed corpus.
func fuzzSeedLog(tb testing.TB) []byte {
	res, err := simulate.Run(simulate.Config{
		Seed:     3,
		Days:     20,
		Topology: topology.Config{RacksPerDC: [2]int{2, 1}},
		Workers:  1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stream.WriteStudyLog(&buf, res); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// typedStreamError reports whether err is one of the reader's declared
// failure modes — the contract is that arbitrary bytes produce exactly
// these, never a panic and never an untyped error.
func typedStreamError(err error) bool {
	return errors.Is(err, stream.ErrBadMagic) ||
		errors.Is(err, stream.ErrTruncated) ||
		errors.Is(err, stream.ErrChecksum) ||
		errors.Is(err, stream.ErrTooLarge) ||
		errors.Is(err, stream.ErrBadRecord)
}

// FuzzStreamReplay drives arbitrary bytes through the log reader and
// every decoded record through a maintainer, live refitter included
// (the seed log reaches three refits). Corrupt input must fail
// with a typed error; it must never panic, never allocate unboundedly,
// and never corrupt the maintainer into failing on later valid input.
func FuzzStreamReplay(f *testing.F) {
	valid := fuzzSeedLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn write: frame cut mid-payload
	f.Add(valid[:11])           // torn write: frame cut mid-header
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(crcFlip) // checksum mismatch on the final frame
	f.Add([]byte("RNSHLOG2 not the right magic"))
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:8]...)) // magic only, clean EOF

	simCfg := simulate.Config{
		Seed:     3,
		Days:     20,
		Topology: topology.Config{RacksPerDC: [2]int{2, 1}},
		Workers:  1,
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := stream.NewReader(bytes.NewReader(data))
		if err != nil {
			if !typedStreamError(err) {
				t.Fatalf("NewReader untyped error: %v", err)
			}
			return
		}
		var recs []stream.Record
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !typedStreamError(err) {
					t.Fatalf("Next untyped error: %v", err)
				}
				break
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return
		}
		m, err := stream.NewMaintainer(stream.Config{Sim: simCfg})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := range recs {
			// Structurally impossible records error (typed); late and
			// duplicate ones quarantine. Neither may panic.
			if err := m.Apply(ctx, &recs[i]); err != nil && !errors.Is(err, stream.ErrBadRecord) {
				t.Fatalf("Apply untyped error: %v", err)
			}
		}
	})
}

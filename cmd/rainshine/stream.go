package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"

	"rainshine"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
)

// streamSimConfig resolves the global study flags to the simulation
// config the stream subcommand runs under — the same resolution
// NewStudyContext applies, so a written log replays byte-identically
// to the batch study built from the same flags.
func streamSimConfig(opts []rainshine.Option) simulate.Config {
	cfg := simulate.Config{Seed: rainshine.DefaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// streamCmd implements the stream subcommand:
//
//	rainshine [flags] stream <out.log>      simulate and write the stream log ("-" = stdout)
//	rainshine [flags] stream replay <log>   replay a log through the watermark
//	                                        maintainer and print the canonical
//	                                        study envelope ("-" = stdin)
func streamCmd(args []string, opts []rainshine.Option) error {
	switch {
	case len(args) == 1 && args[0] != "replay":
		return streamWrite(args[0], opts)
	case len(args) == 2 && args[0] == "replay":
		return streamReplay(args[1], opts)
	default:
		return fmt.Errorf("usage: rainshine [flags] stream <out.log> | stream replay <log>")
	}
}

func streamWrite(path string, opts []rainshine.Option) error {
	cfg := streamSimConfig(opts)
	fmt.Fprintf(os.Stderr, "simulating fleet (seed %d)...\n", cfg.Seed)
	res, err := simulate.Run(cfg)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	bw := bufio.NewWriter(out)
	if err := stream.WriteStudyLog(bw, res); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	recs := res.Days*len(res.Fleet.Racks) + len(res.Events) + len(res.Tickets) + 1
	fmt.Fprintf(os.Stderr, "stream: wrote %d records (%d days, %d racks, %d events, %d tickets)\n",
		recs, res.Days, len(res.Fleet.Racks), len(res.Events), len(res.Tickets))
	return nil
}

func streamReplay(path string, opts []rainshine.Option) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rd, err := stream.NewReader(bufio.NewReader(in))
	if err != nil {
		return err
	}
	ctx := context.Background()
	m, err := stream.Replay(ctx, rd, stream.Config{Sim: streamSimConfig(opts)})
	if err != nil {
		return err
	}
	st := m.Stats()
	d, err := m.Finalize(ctx)
	if err != nil {
		return err
	}
	env, err := stream.EnvelopeJSON(ctx, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stream: replayed %d records to watermark %d (sealed %t, %d late, %d duplicates)\n",
		st.RecordsIn, st.Watermark, st.Sealed, st.Late, st.Duplicates)
	os.Stdout.Write(append(env, '\n'))
	return nil
}

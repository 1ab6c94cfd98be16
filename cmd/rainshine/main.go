// Command rainshine regenerates the paper's tables and figures and runs
// the three decision analyses from the terminal.
//
// Usage:
//
//	rainshine [flags] <command> [args]
//
// Commands:
//
//	summary            fleet and ticket overview
//	table <1|2|3|4>    print a paper table (generated vs published)
//	fig <1..18>        print a paper figure as ASCII bars / CDFs
//	q1 [W1..W7]        spare provisioning analysis (default W1 and W6)
//	q2                 vendor/SKU comparison with TCO verdicts
//	q3                 environmental set-point guidance
//	predict            rack-day failure prediction (future-work extension)
//	quality            DataQuality report: coverage and per-class defect counts
//	export <what>      dump traces to stdout: tickets (CSV), events (JSONL),
//	                   rackdays (CSV analysis table)
//	ablate             MF design-choice ablations (feature subsets, cluster budget, cp)
//	climate-csv <file> run the Q3 analysis on an external rack-day CSV ("-" = stdin)
//	serve              run the analysis daemon: Q1-Q3/predict/quality as a JSON
//	                   HTTP API with a cached study registry, admission
//	                   control, and graceful degradation (own flags:
//	                   -addr, -cache, -timeout, -workers, -warmup,
//	                   -build-timeout, -max-concurrent, -max-queue,
//	                   -q3-concurrent, -q3-queue, -rps, -burst,
//	                   -breaker-threshold, -breaker-cooldown,
//	                   -chaos, -chaos-seed, -cpuprofile, -memprofile;
//	                   see README)
//	stream <out.log>   simulate and write the append-only stream log ("-" = stdout)
//	stream replay <f>  replay a stream log through the watermark maintainer and
//	                   print the canonical study envelope (byte-identical to the
//	                   batch study over the same data)
//	pooling            shared-vs-dedicated spare pool comparison
//	opex               replace-vs-service repair policy comparison
//	tree               print the Q3 multi-factor CART model
//	all                everything above, in paper order
//
// Flags:
//
//	-seed N     root RNG seed (default 42)
//	-days N     observation window in days (default 930)
//	-racks A,B  rack counts for DC1,DC2 (default 331,290)
//	-small      shorthand for a fast reduced study (-days 365 -racks 120,100)
//	-hourly     use hourly provisioning granularity for q1
//	-faults     dirty-data mode: inject the default deterministic fault mix
//	            into the recorded telemetry and scrub it through ingest
//	-workers N  worker goroutines for simulation and analysis (default 0 =
//	            all CPUs, 1 = serial; every count yields identical output)
//	-bins N     histogram bin cap for the fleet-scale binned CART split
//	            search (default 255; values outside [2,255] are rejected
//	            at flag parse; small studies below the auto-binning
//	            threshold are unaffected)
//	-exact      force exact (presorted) CART split search at any data
//	            size — the audit path for binned results
//	-cpuprofile F  write a CPU profile of the run to file F (pprof format)
//	-memprofile F  write a heap profile at exit to file F (pprof format)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rainshine"
	"rainshine/internal/cart"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "rainshine: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("rainshine", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "root RNG seed")
	days := fs.Int("days", 930, "observation window in days")
	racks := fs.String("racks", "", "rack counts dc1,dc2 (default paper-scale 331,290)")
	small := fs.Bool("small", false, "fast reduced study")
	hourly := fs.Bool("hourly", false, "hourly granularity for q1")
	dirty := fs.Bool("faults", false, "inject the default deterministic fault mix (dirty-data mode)")
	workers := fs.Int("workers", 0,
		"worker goroutines for simulation and analysis (0 = all CPUs, 1 = serial; results identical)")
	bins := fs.Int("bins", 0, "histogram bin cap for binned CART split search (0 = default 255, else 2-255)")
	exact := fs.Bool("exact", false, "force exact CART split search at any data size")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command (try: rainshine -small all)")
	}
	// Reject a bad bin budget here, before any simulation spends time;
	// the same typed check guards the WithBins option inside NewStudy.
	if err := cart.ValidateBins(*bins); err != nil {
		return fmt.Errorf("-bins: %s", strings.TrimPrefix(err.Error(), "cart: "))
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	opts := []rainshine.Option{rainshine.WithSeed(*seed), rainshine.WithDays(*days)}
	if *workers != 0 {
		opts = append(opts, rainshine.WithWorkers(*workers))
	}
	if *small {
		opts = append(opts, rainshine.WithDays(365), rainshine.WithRacks(120, 100))
	}
	if *dirty {
		opts = append(opts, rainshine.WithFaults(rainshine.DefaultFaults()))
	}
	if *bins != 0 {
		opts = append(opts, rainshine.WithBins(*bins))
	}
	if *exact {
		opts = append(opts, rainshine.WithExactSplits())
	}
	if *racks != "" {
		// Shared with the server's racks query parameter: rejects
		// malformed pairs and non-positive counts (topology would
		// silently substitute the full paper-scale fleet for those).
		a, b, err := rainshine.ParseRacks(*racks)
		if err != nil {
			// main prints its own "rainshine:" prefix; avoid doubling it.
			return fmt.Errorf("-racks: %s", strings.TrimPrefix(err.Error(), "rainshine: "))
		}
		opts = append(opts, rainshine.WithRacks(a, b))
	}
	// The rack-day budget the daemon applies to its queries, checked
	// before any simulation.
	if err := rainshine.CheckStudySize(opts...); err != nil {
		return err
	}

	// climate-csv analyzes external data: no simulation involved.
	if rest[0] == "climate-csv" {
		if len(rest) < 2 {
			return fmt.Errorf("climate-csv wants a rack-day CSV path (or - for stdin)")
		}
		return analyzeClimateCSV(rest[1], os.Stdout)
	}
	// serve runs the analysis daemon; it has its own flag set and
	// builds studies on demand per request instead of one up front.
	if rest[0] == "serve" {
		return serveCmd(rest[1:])
	}
	// stream writes or replays an append-only stream log; replay routes
	// the log through the watermark maintainer, not a fresh simulation.
	if rest[0] == "stream" {
		return streamCmd(rest[1:], opts)
	}

	fmt.Fprintf(os.Stderr, "simulating fleet (seed %d)...\n", *seed)
	study, err := rainshine.NewStudy(opts...)
	if err != nil {
		return err
	}
	r := &renderer{study: study, out: os.Stdout}

	switch rest[0] {
	case "summary":
		return r.summary()
	case "table":
		if len(rest) < 2 {
			return fmt.Errorf("table wants a number 1-4")
		}
		return r.table(rest[1])
	case "fig":
		if len(rest) < 2 {
			return fmt.Errorf("fig wants a number 1-18")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("parsing figure number: %w", err)
		}
		return r.figure(n)
	case "q1":
		wls := []rainshine.Workload{rainshine.W1, rainshine.W6}
		if len(rest) > 1 {
			wl, err := parseWorkload(rest[1])
			if err != nil {
				return err
			}
			wls = []rainshine.Workload{wl}
		}
		for _, wl := range wls {
			if err := r.q1(wl, *hourly); err != nil {
				return err
			}
		}
		return nil
	case "q2":
		return r.q2()
	case "q3":
		return r.q3()
	case "predict":
		return r.predict()
	case "quality":
		return r.quality()
	case "export":
		if len(rest) < 2 {
			return fmt.Errorf("export wants tickets|events|rackdays")
		}
		return r.export(rest[1])
	case "ablate":
		return r.ablate()
	case "pooling":
		return r.pooling(*hourly)
	case "opex":
		return r.opex()
	case "tree":
		return r.tree()
	case "all":
		return r.all(*hourly)
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// analyzeClimateCSV runs the external-data Q3 path on a file or stdin.
func analyzeClimateCSV(path string, out io.Writer) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("opening %s: %w", path, err)
		}
		defer f.Close()
		in = f
	}
	rep, err := rainshine.AnalyzeClimateCSV(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "External rack-day analysis\n")
	fmt.Fprintf(out, "  temperature knee: %.1f F\n", rep.TempThresholdF)
	if !math.IsNaN(rep.RHThreshold) {
		fmt.Fprintf(out, "  dry-air knee (when hot): %.1f %% RH\n", rep.RHThreshold)
	}
	// Sorted DCs: the report must be byte-identical run to run.
	dcs := make([]string, 0, len(rep.HotPenalty))
	for dc := range rep.HotPenalty {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	for _, dc := range dcs {
		fmt.Fprintf(out, "  %s: disk failure rate x%.2f above the knee\n", dc, rep.HotPenalty[dc])
	}
	if rep.DataCoverage < 1 {
		fmt.Fprintf(out, "  cell coverage: %.2f%% (non-finite cells excluded per split)\n", 100*rep.DataCoverage)
	}
	if len(rep.MissingFeatures) > 0 {
		fmt.Fprintf(out, "  absent factors (analysis degraded): %s\n", strings.Join(rep.MissingFeatures, ", "))
	}
	return nil
}

func parseWorkload(s string) (rainshine.Workload, error) {
	return rainshine.ParseWorkload(s)
}

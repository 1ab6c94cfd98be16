// Package rainshine reproduces "Rain or Shine? — Making Sense of Cloudy
// Reliability Data" (Narayanan et al., ICDCS 2017): a multi-factor
// analysis framework for datacenter failure data, together with the
// synthetic two-datacenter telemetry substrate the analyses run on.
//
// A Study wraps one simulated observation window over the two-DC fleet.
// From it you can regenerate every table and figure of the paper's
// evaluation, or run the three decision analyses directly:
//
//	study, err := rainshine.NewStudy()            // full 2.5-year window
//	q1, err := study.SpareProvisioning(rainshine.W6, false)
//	q2, err := study.VendorComparison(1.0, 1.5)
//	q3, err := study.ClimateGuidance()
//
// Determinism: every Study is a pure function of its seed; the default
// seed regenerates the exact numbers recorded in EXPERIMENTS.md.
package rainshine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rainshine/internal/bms"
	"rainshine/internal/cart"
	"rainshine/internal/envan"
	"rainshine/internal/export"
	"rainshine/internal/faults"
	"rainshine/internal/figures"
	"rainshine/internal/ingest"
	"rainshine/internal/metrics"
	"rainshine/internal/predict"
	"rainshine/internal/provision"
	"rainshine/internal/repair"
	"rainshine/internal/rng"
	"rainshine/internal/simulate"
	"rainshine/internal/skucmp"
	"rainshine/internal/tco"
	"rainshine/internal/ticket"
	"rainshine/internal/topology"
)

// DefaultSeed is the root seed a Study uses when none is given; it
// regenerates the exact numbers recorded in EXPERIMENTS.md.
const DefaultSeed = rng.DefaultSeed

// Workload identifies a hosted workload category (W1-W7, Table III).
type Workload = topology.Workload

// Workload constants re-exported for callers.
const (
	W1 = topology.W1
	W2 = topology.W2
	W3 = topology.W3
	W4 = topology.W4
	W5 = topology.W5
	W6 = topology.W6
	W7 = topology.W7
)

// ParseWorkload resolves a workload name ("W1".."W7", case-insensitive).
func ParseWorkload(s string) (Workload, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	for w := W1; w <= W7; w++ {
		if w.String() == u {
			return w, nil
		}
	}
	return 0, fmt.Errorf("rainshine: unknown workload %q (want W1..W7)", s)
}

// ParseRacks parses and validates a "dc1,dc2" rack-count pair. Both
// counts must be positive: topology construction treats non-positive
// overrides as "use the paper default", so letting them through would
// silently run a full 621-rack study. The CLI -racks flag and the
// server's racks query parameter share this validation.
func ParseRacks(s string) (dc1, dc2 int, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("rainshine: racks want dc1,dc2 counts, got %q", s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("rainshine: parsing racks: %w", err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("rainshine: parsing racks: %w", err)
	}
	if a <= 0 || b <= 0 {
		return 0, 0, fmt.Errorf("rainshine: rack counts must be positive, got %d,%d", a, b)
	}
	return a, b, nil
}

// MaxRackDays bounds the size of one study: its racks across both
// datacenters times its observation days. A study's memory and build
// time grow with its rack-days; the climate series alone hold two
// float32s per rack-day. The bound is the largest study the serving
// daemon accepted at the paper-scale fleet before it existed: 621 racks
// for 3,660 days.
const MaxRackDays = 621 * 3660

// StudySizeError reports a study larger than MaxRackDays. Racks (DC1,
// DC2) and Days are the resolved sizes, defaults filled in.
type StudySizeError struct {
	Racks [2]int
	Days  int
}

func (e *StudySizeError) Error() string {
	return fmt.Sprintf("study of %d+%d racks over %d days exceeds the limit of %d rack-days",
		e.Racks[0], e.Racks[1], e.Days, MaxRackDays)
}

// CheckStudySize returns a *StudySizeError when the study opts describe
// exceeds MaxRackDays. NewStudy applies the same check; the CLI flags
// and the daemon's query parameters call it first, so an oversized
// request fails before anything is built.
func CheckStudySize(opts ...Option) error {
	var cfg simulate.Config
	for _, o := range opts {
		o(&cfg)
	}
	return checkStudySize(cfg)
}

func checkStudySize(cfg simulate.Config) error {
	e := &StudySizeError{Days: cfg.Days}
	if e.Days == 0 {
		e.Days = 930
	}
	// Non-positive rack overrides keep the paper default, as in topology.
	for i, dc := range topology.DefaultDCs() {
		e.Racks[i] = dc.Racks
		if n := cfg.Topology.RacksPerDC[i]; n > 0 {
			e.Racks[i] = n
		}
	}
	// Compare without forming the product, which can overflow.
	r1, r2 := e.Racks[0], e.Racks[1]
	if r1 > MaxRackDays || r2 > MaxRackDays || e.Days > 0 && r1+r2 > MaxRackDays/e.Days {
		return e
	}
	return nil
}

// SKU identifies a server configuration (S1-S7, Table III).
type SKU = topology.SKU

// SKU constants re-exported for callers.
const (
	S1 = topology.S1
	S2 = topology.S2
	S3 = topology.S3
	S4 = topology.S4
	S5 = topology.S5
	S6 = topology.S6
	S7 = topology.S7
)

// Option configures a Study.
type Option func(*simulate.Config)

// WithSeed sets the root random seed (default rng.DefaultSeed).
func WithSeed(seed uint64) Option {
	return func(c *simulate.Config) { c.Seed = seed }
}

// WithDays sets the observation window length in days (default 930,
// ~2.5 years as in the paper).
func WithDays(days int) Option {
	return func(c *simulate.Config) { c.Days = days }
}

// WithRacks overrides the per-DC rack counts (default 331 and 290,
// Table I). Use smaller fleets for fast experiments.
func WithRacks(dc1, dc2 int) Option {
	return func(c *simulate.Config) { c.Topology.RacksPerDC = [2]int{dc1, dc2} }
}

// WithoutSoftwareTickets suppresses non-hardware ticket synthesis; only
// Table II needs them.
func WithoutSoftwareTickets() Option {
	return func(c *simulate.Config) { c.SkipNonHardware = true }
}

// WithWorkers bounds the study's worker pool: the simulation fan-out and
// every downstream analysis (CART fits, cross-validation, the Q3
// pipeline, figure warmup) schedule at most n goroutines. Zero or
// negative means GOMAXPROCS; 1 forces the serial path. Every analysis is
// deterministic for any worker count — n only changes speed, never a
// single byte of output.
func WithWorkers(n int) Option {
	return func(c *simulate.Config) { c.Workers = n }
}

// WithBins caps the histogram bin count for the fleet-scale binned
// CART split search (default cart.DefaultBins = 255; values outside
// [2, 255] make NewStudy fail with a cart.BinsRangeError). Fewer bins
// trade split resolution for speed. Small studies that never trip the
// auto-binning row threshold are unaffected. Any bin count is
// deterministic for any worker count.
func WithBins(n int) Option {
	return func(c *simulate.Config) { c.CARTBins = n }
}

// WithExactSplits forces exact (presorted) CART split search in every
// downstream analysis, even at data sizes where the binned engine
// would normally engage — the reference path for auditing a binned
// result.
func WithExactSplits() Option {
	return func(c *simulate.Config) { c.CARTExact = true }
}

// FaultConfig sets per-class rates for the deterministic fault injector
// (dirty-data mode): sensor dropouts and stuck-at readings, duplicate
// and clock-skewed tickets, and damaged export cells. See
// internal/faults for the knobs.
type FaultConfig = faults.Config

// DefaultFaults returns the documented default corruption rates.
func DefaultFaults() FaultConfig { return faults.Defaults() }

// WithFaults enables dirty-data mode: after the clean simulation runs,
// the *recorded* telemetry (never the ground-truth failure process) is
// corrupted per fc, then passed through the ingest quarantine/repair
// pipeline before any analysis sees it. Corruption is a pure function
// of the study seed. A zero-valued FaultConfig leaves the study
// bit-identical to the clean run.
func WithFaults(fc FaultConfig) Option {
	return func(c *simulate.Config) { c.Faults = &fc }
}

// DataQuality reports what the ingest pipeline found: per-defect-class
// quarantine and repair counts plus ticket/sensor coverage. See
// internal/ingest for the class taxonomy.
type DataQuality = ingest.Report

// Quality returns the study's DataQuality report. Dirty studies report
// the scrub that ran at construction; clean studies run a non-mutating
// audit on first call (and should come back clean).
func (s *Study) Quality() (*DataQuality, error) { return s.data.Quality() }

// Study is one simulated observation window plus cached analyses.
type Study struct {
	data *figures.Data
}

// NewStudy simulates the fleet and returns a Study. It is
// NewStudyContext with context.Background(); use that variant to make
// the simulation cancellable.
func NewStudy(opts ...Option) (*Study, error) {
	return NewStudyContext(context.Background(), opts...)
}

// NewStudyContext is NewStudy under a context: when ctx is canceled the
// simulation stops at its next checkpoint and the context's error is
// returned. Long-running services (the `rainshine serve` daemon) use
// this so abandoned requests stop simulating.
func NewStudyContext(ctx context.Context, opts ...Option) (*Study, error) {
	cfg := simulate.Config{Seed: rng.DefaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cart.ValidateBins(cfg.CARTBins); err != nil {
		return nil, fmt.Errorf("rainshine: %w", err)
	}
	if err := checkStudySize(cfg); err != nil {
		return nil, fmt.Errorf("rainshine: %w", err)
	}
	d, err := figures.NewDataContext(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("rainshine: %w", err)
	}
	return &Study{data: d}, nil
}

// Figures exposes the per-table/figure regenerators (internal/figures).
// The CLI, benchmarks, and EXPERIMENTS.md are all built on this.
func (s *Study) Figures() *figures.Data { return s.data }

// workers returns the study-wide worker budget (simulate.Config
// semantics: 0 means GOMAXPROCS, 1 means serial).
func (s *Study) workers() int { return s.data.Res.Cfg.Workers }

// Warmup materializes every table and figure through the study's worker
// pool and keeps them cached, so subsequent Figures() calls are served
// from memory. Warming also turns on the sharing of sub-analyses between
// the figures and Q1-Q3: per-rack μ distributions, the Q3 environmental
// fit and the S2/S4 MF comparison are each computed once, then read by
// every later SpareProvisioning, VendorComparison and ClimateGuidance
// call. Long-lived services call this once after construction; one-shot
// batch runs don't need it.
func (s *Study) Warmup(ctx context.Context) error {
	return s.data.Warmup(ctx, s.workers())
}

// Tickets returns the study's full RMA ticket stream (including false
// positives, which analyses filter).
func (s *Study) Tickets() []ticket.Ticket { return s.data.Res.Tickets }

// NumServers returns the fleet's server count.
func (s *Study) NumServers() int { return s.data.Res.Fleet.TotalServers() }

// NumRacks returns the fleet's rack count.
func (s *Study) NumRacks() int { return len(s.data.Res.Fleet.Racks) }

// Days returns the observation window length.
func (s *Study) Days() int { return s.data.Res.Days }

// SpareReport answers Q1 for one workload: the over-provisioned capacity
// each approach needs per SLA, the TCO savings of MF over SF, and the MF
// clusters with their defining factor conditions.
type SpareReport struct {
	Workload    string    `json:"workload"`
	Granularity string    `json:"granularity"`
	SLAs        []float64 `json:"slas"`
	// OverprovPct[approach][i] is percent capacity over-provisioned at
	// SLAs[i]; approaches are "LB", "MF", "SF".
	OverprovPct map[string][]float64 `json:"overprov_pct"`
	// TCOSavingsPct[i] is the relative TCO savings of MF over SF.
	TCOSavingsPct []float64 `json:"tco_savings_pct"`
	// Clusters describes each MF rack group: its defining conditions
	// and its spare requirement.
	Clusters []ClusterInfo `json:"clusters,omitempty"`
	// FactorRanking orders the factors by their importance in forming
	// the clusters.
	FactorRanking []string `json:"factor_ranking,omitempty"`
	// DataCoverage is the fraction of recorded telemetry (min of ticket
	// and sensor coverage) backing this analysis; 1.0 on clean studies.
	DataCoverage float64 `json:"data_coverage"`
}

// ClusterInfo describes one MF rack cluster.
type ClusterInfo struct {
	Racks      int    `json:"racks"`
	Conditions string `json:"conditions"`
	// ReqPct is the spare fraction (percent) this cluster provisions at
	// 100% availability.
	ReqPct float64 `json:"req_pct"`
}

// SpareProvisioning runs Q1-A for the workload at daily or hourly
// granularity.
func (s *Study) SpareProvisioning(wl Workload, hourly bool) (*SpareReport, error) {
	g := metrics.Daily
	if hourly {
		g = metrics.Hourly
	}
	sl, err := provision.AnalyzeServerLevel(s.data.Res, s.data.Mu, wl, g, nil)
	if err != nil {
		return nil, err
	}
	savings, err := sl.TCOSavings(tco.Default())
	if err != nil {
		return nil, err
	}
	rep := &SpareReport{
		Workload:    wl.String(),
		Granularity: g.String(),
		SLAs:        sl.SLAs,
		OverprovPct: map[string][]float64{},
	}
	for _, a := range []provision.Approach{provision.LB, provision.MF, provision.SF} {
		pct := make([]float64, len(sl.SLAs))
		for i, v := range sl.Overprov[a] {
			pct[i] = 100 * v
		}
		rep.OverprovPct[a.String()] = pct
	}
	for _, v := range savings {
		rep.TCOSavingsPct = append(rep.TCOSavingsPct, 100*v)
	}
	if q, err := s.Quality(); err == nil {
		rep.DataCoverage = q.Coverage()
	}
	if sl.Clustering != nil {
		rep.FactorRanking = sl.Clustering.Tree.RankedFeatures()
		for ci, members := range sl.Clustering.Members {
			cond, err := sl.Clustering.Describe(ci)
			if err != nil {
				return nil, err
			}
			req := 0.0
			for _, f := range sl.ClusterFractions[ci] {
				if f > req {
					req = f
				}
			}
			rep.Clusters = append(rep.Clusters, ClusterInfo{
				Racks:      len(members),
				Conditions: cond,
				ReqPct:     100 * req,
			})
		}
	}
	return rep, nil
}

// VendorReport answers Q2: the SF and MF views of the S2-vs-S4 contrast
// and the procurement verdicts at each price ratio.
type VendorReport struct {
	// RatioSF and RatioMF are the S2:S4 average-failure-rate ratios the
	// two approaches estimate (paper: ~10x vs ~4x).
	RatioSF float64 `json:"ratio_sf"`
	RatioMF float64 `json:"ratio_mf"`
	// Verdicts hold the TCO savings of procuring S4 instead of S2, per
	// price ratio, under each approach's failure estimates.
	Verdicts []skucmp.Verdict `json:"verdicts"`
	// PValue is the two-sided paired-test p-value for the adjusted
	// S2-vs-S4 contrast across covariate strata (the paper's confidence
	// check); Strata is the number of strata observing both SKUs.
	// Encodes as null when the test is undefined (too few strata).
	PValue float64 `json:"p_value"`
	Strata int     `json:"strata"`
	// DataCoverage is the fraction of recorded telemetry (min of ticket
	// and sensor coverage) backing this analysis; 1.0 on clean studies.
	DataCoverage float64 `json:"data_coverage"`
}

// VendorComparison runs Q2 for the paper's two compute SKUs at the given
// S4:S2 price ratios (the paper evaluates 1.0 and 1.5).
func (s *Study) VendorComparison(priceRatios ...float64) (*VendorReport, error) {
	if len(priceRatios) == 0 {
		priceRatios = []float64{1.0, 1.5}
	}
	f, err := s.data.RackDays()
	if err != nil {
		return nil, err
	}
	sf, err := skucmp.AnalyzeSF(f, []topology.SKU{topology.S2, topology.S4})
	if err != nil {
		return nil, err
	}
	mf, err := s.data.PairMF()
	if err != nil {
		return nil, err
	}
	pick := func(ss []skucmp.Stats, sku string) (skucmp.Stats, error) {
		for _, st := range ss {
			if st.SKU == sku {
				return st, nil
			}
		}
		return skucmp.Stats{}, fmt.Errorf("rainshine: no stats for %s", sku)
	}
	sfS2, err := pick(sf, "S2")
	if err != nil {
		return nil, err
	}
	sfS4, err := pick(sf, "S4")
	if err != nil {
		return nil, err
	}
	mfS2, err := pick(mf, "S2")
	if err != nil {
		return nil, err
	}
	mfS4, err := pick(mf, "S4")
	if err != nil {
		return nil, err
	}
	if sfS4.Avg == 0 || mfS4.Avg == 0 {
		return nil, errors.New("rainshine: degenerate S4 rate; fleet too small")
	}
	servers := topology.SKUCatalog()[topology.S2].ServersPerRack
	verdicts, err := skucmp.CompareTCO(sfS2, sfS4, mfS2, mfS4, servers, priceRatios, tco.Default(), 3)
	if err != nil {
		return nil, err
	}
	sig, err := skucmp.MFSignificance(f, topology.S2, topology.S4)
	if err != nil {
		return nil, err
	}
	rep := &VendorReport{
		RatioSF:  sfS2.Avg / sfS4.Avg,
		RatioMF:  mfS2.Avg / mfS4.Avg,
		Verdicts: verdicts,
		PValue:   sig.PairedT,
		Strata:   sig.Strata,
	}
	if q, err := s.Quality(); err == nil {
		rep.DataCoverage = q.Coverage()
	}
	return rep, nil
}

// PoolingAnalysis quantifies Section II's shared-vs-dedicated spare
// pool question: total spares needed at 100% availability when pools are
// shared at each scope from per-rack to globally.
func (s *Study) PoolingAnalysis(hourly bool) ([]provision.PoolRequirement, error) {
	g := metrics.Daily
	if hourly {
		g = metrics.Hourly
	}
	return provision.AnalyzePooling(s.data.Res, g)
}

// RepairPolicy compares replace-vs-service economics per component class
// (Section II's OpEx question) over this study's failure stream.
func (s *Study) RepairPolicy() ([]repair.Recommendation, error) {
	return repair.Compare(s.data.Res, tco.Default(), repair.Params{}, s.data.Res.Cfg.Seed)
}

// ExportRackDaysCSV writes the study's rack-day analysis table as CSV —
// the shape AnalyzeClimateCSV (and external tools) consume. In
// dirty-data mode the export itself is lossy, the way inventory-system
// extracts are: configured factor columns are missing and cells read
// NaN/Inf at the configured rates (the target and environmental axes
// are never damaged, so the table still describes the same failure
// history). AnalyzeClimateCSV demonstrates degrading gracefully on
// exactly this output.
func (s *Study) ExportRackDaysCSV(w io.Writer) error {
	f, err := s.data.RackDays()
	if err != nil {
		return err
	}
	if fc := s.data.Res.Cfg.Faults; fc != nil && fc.Enabled() {
		src := rng.New(s.data.Res.Cfg.Seed).Split("faults").Split("frame")
		f, err = faults.CorruptFrame(src, f, *fc, "disk_failures", "dc", "temp", "rh")
		if err != nil {
			return err
		}
	}
	return export.FrameCSV(w, f)
}

// ExportTicketsCSV writes the study's RMA ticket stream as CSV.
func (s *Study) ExportTicketsCSV(w io.Writer) error {
	return export.TicketsCSV(w, s.Tickets())
}

// AnalyzeClimateCSV runs the Q3 multi-factor environmental analysis on
// an external rack-day table (CSV with the columns `rainshine export
// rackdays` produces — operators can substitute their own telemetry in
// that shape). This is the bring-your-own-data path: none of the
// simulator is involved.
// The input is untrusted: required columns are checked up front, Inf
// cells are normalized to missing, and absent optional factors shrink
// the candidate set instead of failing — the report's DataCoverage and
// MissingFeatures fields say how degraded the run was.
func AnalyzeClimateCSV(r io.Reader) (*ClimateReport, error) {
	f, err := export.ReadFrameCSV(r)
	if err != nil {
		return nil, err
	}
	var ingestRep ingest.Report
	fq, err := ingest.SanitizeFrame(f, []string{"disk_failures", "dc", "temp", "rh"}, &ingestRep)
	if err != nil {
		return nil, fmt.Errorf("rainshine: unusable climate table: %w", err)
	}
	res, err := envan.Analyze(f, cart.Config{})
	if err != nil {
		return nil, err
	}
	rep := &ClimateReport{
		TempThresholdF:  res.Thresholds.TempF,
		RHThreshold:     res.Thresholds.RH,
		HotPenalty:      map[string]float64{},
		DryPenalty:      map[string]float64{},
		Tree:            res.Tree,
		DataCoverage:    fq.Coverage(),
		MissingFeatures: res.DroppedFeatures,
	}
	fillPenalties(rep, res)
	return rep, nil
}

// fillPenalties populates the per-DC hot/dry penalty ratios from the
// grouped rates, requiring minimal exposure in each regime.
func fillPenalties(rep *ClimateReport, res *envan.Result) {
	const minExposure = 30
	for _, g := range res.Groups {
		if g.Cool.N >= minExposure && g.Cool.Mean > 0 && g.Hot.N >= minExposure {
			rep.HotPenalty[g.DC] = g.Hot.Mean / g.Cool.Mean
		}
		if g.Hot.N >= minExposure && g.Hot.Mean > 0 && g.HotDry.N >= minExposure {
			rep.DryPenalty[g.DC] = g.HotDry.Mean / g.Hot.Mean
		}
	}
}

// EnvironmentAlarms scans the study's climate telemetry against the
// default BMS envelope and returns per-DC alarm summaries (Section IV's
// building management system behaviour).
func (s *Study) EnvironmentAlarms() ([]bms.Summary, error) {
	res := s.data.Res
	alarms, err := bms.Scan(res.Climate, res.Fleet, bms.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	return bms.Summarize(alarms, res.Fleet, res.Days), nil
}

// PredictionReport is the outcome of the failure-prediction extension
// (the paper's Section VII future work): a rack-day failure classifier
// trained on the first part of the window and evaluated on the rest.
type PredictionReport struct {
	// Precision, Recall, F1, Accuracy, AUC evaluate the alarm quality
	// on the held-out time range. Undefined metrics (e.g. precision
	// with no positive predictions) encode as null.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	Accuracy  float64 `json:"accuracy"`
	AUC       float64 `json:"auc"`
	// PositiveRate is the test-split base rate of failure rack-days.
	PositiveRate float64 `json:"positive_rate"`
	// TopFactors ranks the predictive factors.
	TopFactors []string `json:"top_factors,omitempty"`
	// TrainRows and TestRows size the time-ordered split.
	TrainRows int `json:"train_rows"`
	TestRows  int `json:"test_rows"`
}

// FailurePrediction trains and evaluates the rack-day failure predictor
// on this study's telemetry.
func (s *Study) FailurePrediction() (*PredictionReport, error) {
	f, err := s.data.RackDays()
	if err != nil {
		return nil, err
	}
	res, err := predict.Train(f, predict.Config{Balance: true, Workers: s.workers()})
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	return &PredictionReport{
		Precision:    m.Precision,
		Recall:       m.Recall,
		F1:           m.F1,
		Accuracy:     m.Accuracy,
		AUC:          m.AUC,
		PositiveRate: m.PositiveRate,
		TopFactors:   res.Tree.RankedFeatures(),
		TrainRows:    res.TrainRows,
		TestRows:     res.TestRows,
	}, nil
}

// ClimateReport answers Q3: the set-point thresholds the MF tree found
// and the failure-rate penalty of operating outside them, per DC.
type ClimateReport struct {
	// TempThresholdF is the discovered temperature split (paper: 78 F).
	// Encodes as null when no temperature split was found.
	TempThresholdF float64 `json:"temp_threshold_f"`
	// RHThreshold is the humidity split inside the hot regime (paper:
	// 25%). NaN — encoded as null — when no humidity split was found.
	RHThreshold float64 `json:"rh_threshold"`
	// HotPenalty[dc] is the multiplicative disk-failure increase above
	// the temperature threshold (paper DC1: ~1.5x; DC2: ~1x).
	HotPenalty map[string]float64 `json:"hot_penalty"`
	// DryPenalty[dc] is the further increase when also below the RH
	// threshold (paper DC1: ~1.25x).
	DryPenalty map[string]float64 `json:"dry_penalty"`
	// Tree is the fitted MF model for in-process inspection; it does not
	// participate in the JSON encoding.
	Tree *cart.Tree `json:"-"`
	// DataCoverage is the fraction of usable cells/telemetry backing
	// the analysis (1.0 when nothing was quarantined or missing).
	DataCoverage float64 `json:"data_coverage"`
	// MissingFeatures lists candidate factors the input did not carry;
	// the analysis degraded to the remaining factors.
	MissingFeatures []string `json:"missing_features,omitempty"`
}

// ClimateGuidance runs Q3 over the study's rack-day data. It is
// ClimateGuidanceContext with context.Background(); use that variant
// for cancellable analysis.
func (s *Study) ClimateGuidance() (*ClimateReport, error) {
	return s.ClimateGuidanceContext(context.Background())
}

// ClimateGuidanceContext is ClimateGuidance under a context: the Q3
// pipeline (three CART fits, the humidity boundary scan) fans across
// the study's worker pool and stops early when ctx is canceled — the
// variant the serving path uses per request. On a warmed study the fit
// is Fig 18's, computed once; a fit canceled through ctx is not kept,
// so the next call fits afresh.
func (s *Study) ClimateGuidanceContext(ctx context.Context) (*ClimateReport, error) {
	res, err := s.data.Climate(ctx)
	if err != nil {
		return nil, err
	}
	rep := &ClimateReport{
		TempThresholdF:  res.Thresholds.TempF,
		RHThreshold:     res.Thresholds.RH,
		HotPenalty:      map[string]float64{},
		DryPenalty:      map[string]float64{},
		Tree:            res.Tree,
		MissingFeatures: res.DroppedFeatures,
	}
	if q, err := s.Quality(); err == nil {
		rep.DataCoverage = q.Coverage()
	}
	// Penalties are only meaningful with enough exposure in each regime;
	// DC2's chilled-water plant rarely strays above the threshold at all,
	// which is itself the Fig 18 finding (no entry = insensitive).
	fillPenalties(rep, res)
	return rep, nil
}

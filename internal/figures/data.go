// Package figures regenerates every table and figure of the paper's
// evaluation from a simulation run. Each function returns structured
// rows; the CLI, the benchmarks, and EXPERIMENTS.md all consume the same
// implementations, so the numbers reported anywhere in this repository
// come from exactly one code path per experiment.
package figures

import (
	"context"
	"errors"
	"sync"

	"rainshine/internal/cart"
	"rainshine/internal/envan"
	"rainshine/internal/failure"
	"rainshine/internal/frame"
	"rainshine/internal/ingest"
	"rainshine/internal/metrics"
	"rainshine/internal/parallel"
	"rainshine/internal/predict"
	"rainshine/internal/simulate"
	"rainshine/internal/skucmp"
	"rainshine/internal/topology"
)

// lazyVal is a compute-once cell: the first caller runs fn, every later
// caller (on any goroutine) gets the same value without re-entering fn
// or serializing behind an unrelated computation. A panicking fn still
// counts as the one call, so its callers get errPanicked, never a zero
// value passed off as a success.
type lazyVal[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazyVal[T]) get(fn func() (T, error)) (T, error) {
	l.once.Do(func() {
		l.err = errPanicked // replaced when fn returns
		l.v, l.err = fn()
	})
	return l.v, l.err
}

// preset fills the cell without computing, when the value already exists
// (the dirty-data scrub produces the quality report as a side effect).
func (l *lazyVal[T]) preset(v T) {
	l.once.Do(func() { l.v = v })
}

// errPanicked is what callers waiting on a shared computation get when
// that computation panicked on another goroutine.
var errPanicked = errors.New("figures: shared computation panicked")

// flight is the compute-once cell for a memo entry whose computation
// takes the caller's context. Only a success is kept. The first caller
// computes under its own ctx; callers that arrive meanwhile wait for it,
// each bounded by its own ctx. When the computation ends because its
// caller's ctx ended, the waiters do not inherit that error: the next
// one computes afresh under its own ctx. Any other error reaches the
// callers waiting on that computation, and the next caller retries.
type flight[T any] struct {
	mu   sync.Mutex
	ok   bool
	v    T
	call *flightCall[T] // the computation in progress, if any
}

// flightCall is one computation of a flight; its fields are set before
// done is closed.
type flightCall[T any] struct {
	done     chan struct{}
	v        T
	err      error
	canceled bool // it ended with its caller's ctx
}

func (c *flight[T]) get(ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.ok {
			v := c.v
			c.mu.Unlock()
			return v, nil
		}
		call := c.call
		if call == nil {
			call = &flightCall[T]{done: make(chan struct{})}
			c.call = call
			c.mu.Unlock()
			c.run(ctx, call, fn)
			return call.v, call.err
		}
		c.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if !call.canceled {
			return call.v, call.err
		}
	}
}

// run computes call as the flight's leader and publishes the outcome,
// also when fn panics, so that no waiter is left blocked.
func (c *flight[T]) run(ctx context.Context, call *flightCall[T], fn func(context.Context) (T, error)) {
	call.err = errPanicked // replaced when fn returns
	defer func() {
		c.mu.Lock()
		if call.err == nil {
			c.v, c.ok = call.v, true
		}
		c.call = nil
		c.mu.Unlock()
		close(call.done)
	}()
	call.v, call.err = fn(ctx)
	call.canceled = call.err != nil && ctx.Err() != nil
}

// Data wraps a simulation result with lazily computed derived artifacts:
// each is computed once, on first use, and shared by every later caller.
// Each artifact sits behind its own once-guard, so two goroutines warming
// different figures never serialize behind each other.
type Data struct {
	Res *simulate.Result

	rackDays lazyVal[*frame.Frame]
	quality  lazyVal[*ingest.Report]

	// memo holds whole figure/table results and the sub-analyses several
	// of them share with Q1-Q3 and the predictor: per-rack μ
	// distributions (Mu), the environmental fit (Climate), the S2/S4 MF
	// comparison (PairMF) and the failure predictor (Prediction).
	// Memoized values are shared between callers and read-only.
	memo sync.Map
}

// NewDataContext runs a simulation and wraps its result. In dirty-data
// mode (cfg.Faults set) the recorded streams pass through the ingest
// quarantine/repair pipeline before any analysis sees them; the clean
// path skips scrubbing entirely so results stay bit-identical to the
// seed runs. Cancellation aborts the simulation (and skips the
// dirty-data scrub) instead of running it to completion for a caller
// that is no longer listening.
func NewDataContext(ctx context.Context, cfg simulate.Config) (*Data, error) {
	res, err := simulate.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := &Data{Res: res}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		rep, err := ingest.Scrub(res)
		if err != nil {
			return nil, err
		}
		d.quality.preset(rep)
	}
	return d, nil
}

// From wraps an existing simulation result.
func From(res *simulate.Result) *Data { return &Data{Res: res} }

// FromWithQuality wraps an existing simulation result whose DataQuality
// report was already produced elsewhere (a stream reconstruction scrubs
// as records arrive and accumulates the report incrementally). Quality
// serves rep instead of re-auditing.
func FromWithQuality(res *simulate.Result, rep *ingest.Report) *Data {
	d := &Data{Res: res}
	if rep != nil {
		d.quality.preset(rep)
	}
	return d
}

// Quality returns the DataQuality report of the telemetry backing the
// analyses. Dirty studies report the scrub that already ran; clean
// studies run a non-mutating audit on first call.
func (d *Data) Quality() (*ingest.Report, error) {
	return d.quality.get(func() (*ingest.Report, error) {
		return ingest.Audit(d.Res)
	})
}

// RackDays returns the (cached) rack-day λ frame.
func (d *Data) RackDays() (*frame.Frame, error) {
	return d.rackDays.get(func() (*frame.Frame, error) {
		return metrics.RackDayFrame(d.Res)
	})
}

// cached memoizes one computation by key. Each key has its own
// once-guard, so independent entries materialize concurrently without
// re-running.
func cached[T any](d *Data, key any, fn func() (T, error)) (T, error) {
	cell, _ := d.memo.LoadOrStore(key, &lazyVal[T]{})
	return cell.(*lazyVal[T]).get(fn)
}

// cachedCtx is cached for computations that take the caller's context;
// their entries keep only successes (see flight).
func cachedCtx[T any](ctx context.Context, d *Data, key any, fn func(context.Context) (T, error)) (T, error) {
	cell, _ := d.memo.LoadOrStore(key, &flight[T]{})
	return cell.(*flight[T]).get(ctx, fn)
}

// TreeConfig is the study's tree-learner configuration: the worker
// budget plus the WithBins/WithExactSplits split policy. Fig 18, Q3 and
// the stream envelope all fit under it.
func (d *Data) TreeConfig() cart.Config {
	cfg := cart.Config{Workers: d.Res.Cfg.Workers, Bins: d.Res.Cfg.CARTBins}
	if d.Res.Cfg.CARTExact {
		cfg.Split = cart.SplitExact
	}
	return cfg
}

// muKey names one Mu entry: a non-empty subset of the failure.NumComponents
// component classes as a bit set, at one of the four granularities.
type muKey struct {
	comps uint8
	g     metrics.Granularity
}

// muKeyOf canonicalizes (comps, g); ok is false outside the key space
// (no component, an invalid component or an invalid granularity).
func muKeyOf(comps []failure.Component, g metrics.Granularity) (k muKey, ok bool) {
	k.g = g
	for _, c := range comps {
		if c < 0 || c >= failure.NumComponents {
			return k, false
		}
		k.comps |= 1 << c
	}
	return k, k.comps != 0 && g >= metrics.Daily && g <= metrics.Monthly
}

// Mu returns the per-rack μ distributions counting the component classes
// comps at granularity g (metrics.MuDistributions). Each (component set,
// granularity) is computed once and shared by Figs 1 and 10-13, Table IV
// and Q1.
func (d *Data) Mu(comps []failure.Component, g metrics.Granularity) ([]metrics.WindowDist, error) {
	compute := func() ([]metrics.WindowDist, error) { return metrics.MuDistributions(d.Res, comps, g) }
	key, ok := muKeyOf(comps, g)
	if !ok {
		return compute() // MuDistributions reports the bad input
	}
	return cached(d, key, compute)
}

// climateKey, pairMFKey and predictionKey name the single Climate,
// PairMF and Prediction entries.
type (
	climateKey    struct{}
	pairMFKey     struct{}
	predictionKey struct{}
)

// Climate returns the MF environmental analysis (envan) of the rack-day
// frame under the study's TreeConfig: the fit behind Fig 18, Q3 and the
// stream envelope. It is computed once; a fit that ends with its
// caller's ctx is not kept.
func (d *Data) Climate(ctx context.Context) (*envan.Result, error) {
	return cachedCtx(ctx, d, climateKey{}, d.climate)
}

func (d *Data) climate(ctx context.Context) (*envan.Result, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	return envan.AnalyzeContext(ctx, f, d.TreeConfig())
}

// PairMF returns the MF standardization of the two compute SKUs, S2 and
// S4 (skucmp.AnalyzeMF): Fig 15's bars and Q2's MF failure rates. It is
// computed once.
func (d *Data) PairMF() ([]skucmp.Stats, error) {
	return cached(d, pairMFKey{}, func() ([]skucmp.Stats, error) {
		f, err := d.RackDays()
		if err != nil {
			return nil, err
		}
		return skucmp.AnalyzeMF(f, []topology.SKU{topology.S2, topology.S4})
	})
}

// Prediction returns the rack-day failure predictor trained and
// evaluated on the rack-day frame (predict.Train, class-balanced, over
// the study's worker budget). It is computed once.
func (d *Data) Prediction() (*predict.Result, error) {
	return cached(d, predictionKey{}, func() (*predict.Result, error) {
		f, err := d.RackDays()
		if err != nil {
			return nil, err
		}
		return predict.Train(f, predict.Config{Balance: true, Workers: d.Res.Cfg.Workers})
	})
}

// warmEntry names one independently materializable artifact.
type warmEntry struct {
	key string
	fn  func(ctx context.Context, d *Data) error
}

func discardErr[T any](fn func(d *Data) (T, error)) func(ctx context.Context, d *Data) error {
	return func(_ context.Context, d *Data) error { _, err := fn(d); return err }
}

// warmables lists every table and figure Warmup materializes, in paper
// order. The shared rack-day frame is warmed first (alone) so the fan-out
// hits a populated cache instead of convoying on its once-guard.
var warmables = []warmEntry{
	{"tableI", func(_ context.Context, d *Data) error { d.TableI(); return nil }},
	{"tableII", func(_ context.Context, d *Data) error { d.TableII(); return nil }},
	{"tableIII", func(_ context.Context, d *Data) error { d.TableIII(); return nil }},
	{"tableIV", discardErr((*Data).TableIV)},
	{"fig1", discardErr((*Data).Fig1)},
	{"fig2", discardErr((*Data).Fig2)},
	{"fig3", discardErr((*Data).Fig3)},
	{"fig4", discardErr((*Data).Fig4)},
	{"fig5", discardErr((*Data).Fig5)},
	{"fig6", discardErr((*Data).Fig6)},
	{"fig7", discardErr((*Data).Fig7)},
	{"fig8", discardErr((*Data).Fig8)},
	{"fig9", discardErr((*Data).Fig9)},
	{"fig10", discardErr((*Data).Fig10)},
	{"fig11", discardErr((*Data).Fig11)},
	{"fig12", discardErr((*Data).Fig12)},
	{"fig13", discardErr((*Data).Fig13)},
	{"fig14", discardErr((*Data).Fig14)},
	{"fig15", discardErr((*Data).Fig15)},
	{"fig16", discardErr((*Data).Fig16)},
	{"fig17", discardErr((*Data).Fig17)},
	{"fig18", func(ctx context.Context, d *Data) error { _, err := d.Fig18Context(ctx); return err }},
}

// Warmup materializes every table and figure through the study's worker
// pool (simulate.Config.Workers), so later callers are served from
// memory. Materializing them also fills the memo's shared sub-analyses,
// so Q1's μ distributions, Q2's MF comparison and Q3's fit are ready
// too. The first error (in paper order) is returned, but warming
// continues for the remaining entries; a canceled ctx stops scheduling
// new ones.
func (d *Data) Warmup(ctx context.Context) error {
	// The rack-day frame feeds nearly every figure: build it once up
	// front instead of having the whole pool convoy on its once-guard.
	if _, err := d.RackDays(); err != nil {
		return err
	}
	return parallel.ForEach(ctx, d.Res.Cfg.Workers, len(warmables), func(i int) error {
		return warmables[i].fn(ctx, d)
	})
}

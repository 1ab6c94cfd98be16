package faults

import (
	"errors"
	"time"

	"rainshine/internal/rng"
)

// ErrInjectedBuild is the sentinel every chaos-injected build failure
// returns. Its message is deliberately fixed — no attempt numbers, no
// timestamps — so a degraded response that quotes it is byte-stable
// across runs of the same seed.
var ErrInjectedBuild = errors.New("chaos: injected build failure")

// ChaosConfig parameterizes the serving tier's deterministic fault
// plan: which build attempts fail, which requests see latency spikes,
// and which clients drain their responses slowly. Like every injector
// in this package it is seed-driven — the same seed and the same
// attempt/request sequence produce the same faults.
type ChaosConfig struct {
	// Seed roots the chaos decision streams (0 means rng.DefaultSeed).
	Seed uint64
	// BuildFailAfter > 0 fails every build attempt after the Nth per
	// study key: attempt 1..N succeed, N+1.. fail. This is the
	// structural knob the soak test uses — it guarantees a last-good
	// study exists before failures start, independent of scheduling.
	BuildFailAfter int
	// BuildFailRate is the per-attempt probability of an injected build
	// failure, decided deterministically per (seed, key, attempt).
	BuildFailRate float64
	// LatencyRate is the per-request probability of an injected latency
	// spike, uniform in (0, LatencySpike].
	LatencyRate  float64
	LatencySpike time.Duration
	// SlowClientRate is the per-request probability that the response
	// body drains in SlowChunk-byte writes with SlowDelay pauses — the
	// slow-client (trickle-read) simulation.
	SlowClientRate float64
	SlowChunk      int
	SlowDelay      time.Duration

	// Stream-delivery defects: the stream layer perturbs a canonical
	// record sequence with these decisions before replay (see
	// stream.CorruptRecords). Each decision is a pure function of
	// (seed, record sequence position).
	//
	// StreamReorderRate defers a record's delivery into the next
	// observation day — out of order, but within the maintainer's
	// default lateness slack, so no data is lost.
	StreamReorderRate float64
	// StreamDuplicateRate re-delivers an event or ticket record
	// immediately (same sequence number; the maintainer must quarantine
	// the copy as DuplicateEvent).
	StreamDuplicateRate float64
	// StreamLateRate defers a record by streamLateDays observation
	// days — past the watermark, so the maintainer quarantines it as
	// LateArrival.
	StreamLateRate float64
}

// streamLateDays is how many observation days StreamLate defers a
// record: enough to land past the watermark at the stream maintainer's
// default lateness of one day.
const streamLateDays = 3

// DefaultChaos is the fault mix behind the serve daemon's -chaos flag:
// every class enabled at rates that keep the daemon mostly available
// while exercising all degradation paths.
func DefaultChaos(seed uint64) ChaosConfig {
	return ChaosConfig{
		Seed:           seed,
		BuildFailRate:  0.2,
		LatencyRate:    0.1,
		LatencySpike:   150 * time.Millisecond,
		SlowClientRate: 0.05,
		SlowChunk:      512,
		SlowDelay:      2 * time.Millisecond,
	}
}

// Enabled reports whether any chaos class is active.
func (c ChaosConfig) Enabled() bool {
	return c.BuildFailAfter > 0 || c.BuildFailRate > 0 ||
		c.LatencyRate > 0 || c.SlowClientRate > 0 || c.StreamEnabled()
}

// StreamEnabled reports whether any stream-delivery defect is active.
func (c ChaosConfig) StreamEnabled() bool {
	return c.StreamReorderRate > 0 || c.StreamDuplicateRate > 0 || c.StreamLateRate > 0
}

// Chaos makes the fault plan's per-attempt and per-request decisions.
// Every decision derives a fresh labelled stream from the root seed
// (rng.Source.Split is a pure function of seed and label, consuming no
// shared state), so Chaos is safe for concurrent use and a decision
// depends only on (seed, key, attempt) or (seed, sequence number) —
// never on goroutine interleaving.
type Chaos struct {
	cfg ChaosConfig
	src *rng.Source
}

// NewChaos builds the decision-maker for cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	seed := cfg.Seed
	if seed == 0 {
		seed = rng.DefaultSeed
	}
	if cfg.SlowChunk < 1 {
		cfg.SlowChunk = 512
	}
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = time.Millisecond
	}
	return &Chaos{cfg: cfg, src: rng.New(seed).Split("chaos")}
}

// BuildFault decides whether build attempt n (1-based) for the study
// key fails, returning ErrInjectedBuild when it does.
func (c *Chaos) BuildFault(key string, attempt int) error {
	if c == nil {
		return nil
	}
	if c.cfg.BuildFailAfter > 0 && attempt > c.cfg.BuildFailAfter {
		return ErrInjectedBuild
	}
	if c.cfg.BuildFailRate > 0 {
		s := c.src.Split("build:"+key).SplitIndex("attempt", attempt)
		if s.Float64() < c.cfg.BuildFailRate {
			return ErrInjectedBuild
		}
	}
	return nil
}

// Latency returns the injected delay for request seq, zero for most.
func (c *Chaos) Latency(seq uint64) time.Duration {
	if c == nil || c.cfg.LatencyRate <= 0 || c.cfg.LatencySpike <= 0 {
		return 0
	}
	s := c.src.Split("latency").SplitIndex("req", int(seq))
	if s.Float64() >= c.cfg.LatencyRate {
		return 0
	}
	// (0, LatencySpike]: a selected request always stalls a little.
	return time.Duration((1 - s.Float64()) * float64(c.cfg.LatencySpike))
}

// StreamReorder decides whether the record at sequence position pos is
// deferred into the next observation day (out-of-order delivery within
// the lateness slack).
func (c *Chaos) StreamReorder(pos int) bool {
	if c == nil || c.cfg.StreamReorderRate <= 0 {
		return false
	}
	return c.src.Split("stream:reorder").SplitIndex("rec", pos).Float64() < c.cfg.StreamReorderRate
}

// StreamDuplicate decides whether the record at sequence position pos
// is re-delivered immediately after itself.
func (c *Chaos) StreamDuplicate(pos int) bool {
	if c == nil || c.cfg.StreamDuplicateRate <= 0 {
		return false
	}
	return c.src.Split("stream:duplicate").SplitIndex("rec", pos).Float64() < c.cfg.StreamDuplicateRate
}

// StreamLate decides whether the record at sequence position pos is
// delivered late, returning how many observation days its delivery is
// deferred (past the watermark by construction).
func (c *Chaos) StreamLate(pos int) (days int, ok bool) {
	if c == nil || c.cfg.StreamLateRate <= 0 {
		return 0, false
	}
	if c.src.Split("stream:late").SplitIndex("rec", pos).Float64() >= c.cfg.StreamLateRate {
		return 0, false
	}
	return streamLateDays, true
}

// SlowClient decides whether request seq drains its response slowly,
// returning the chunk size and per-chunk delay when it does.
func (c *Chaos) SlowClient(seq uint64) (chunk int, delay time.Duration, ok bool) {
	if c == nil || c.cfg.SlowClientRate <= 0 {
		return 0, 0, false
	}
	s := c.src.Split("slowclient").SplitIndex("req", int(seq))
	if s.Float64() >= c.cfg.SlowClientRate {
		return 0, 0, false
	}
	return c.cfg.SlowChunk, c.cfg.SlowDelay, true
}

package server

import (
	"sort"
	"sync"
	"time"

	"rainshine/internal/resilience"
	"rainshine/internal/stats"
	"rainshine/internal/stream"
)

// latencyWindow bounds the per-endpoint latency reservoir; quantiles
// are computed over the most recent window of samples.
const latencyWindow = 4096

// Metrics aggregates the counters /metricz reports: per-endpoint
// request counts and latency quantiles, cache effectiveness, and the
// study-build lifecycle. All methods are safe for concurrent use.
type Metrics struct {
	start time.Time

	// mu guards every field below. The counters share it, rather than
	// each being atomic, because Snapshot derives builds in flight from
	// four of them and must read them together.
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	counts    [numCounters]int64
	cacheSize int
	stream    *StreamCounters
	breaker   *resilience.Breaker
}

// counter names one of the monotonic event counts in Metrics.
type counter int

const (
	// Registry lookups served from the LRU or not (a miss may join an
	// in-flight build instead of starting one), and LRU evictions.
	cacheHits counter = iota
	cacheMisses
	cacheDedupJoins
	cacheEvictions
	// The study-build lifecycle. Failed includes the builds killed by
	// their own build timeout; canceled builds were abandoned by every
	// waiter.
	buildsStarted
	buildsCompleted
	buildsCanceled
	buildsFailed
	buildTimeouts
	// Admissions refused, by reason, and responses served from a
	// last-good stale study.
	shedQueueFull
	shedRateLimited
	shedBreakerOpen
	degradedServed
	// Injected faults, so soak runs can assert the chaos harness fired.
	chaosLatencies
	chaosBuildFaults
	chaosSlowClients
	numCounters
)

// shedCounters maps each admission-refusal reason to its counter.
var shedCounters = map[resilience.Reason]counter{
	resilience.QueueFull:   shedQueueFull,
	resilience.RateLimited: shedRateLimited,
	resilience.BreakerOpen: shedBreakerOpen,
}

// endpointStats accumulates one endpoint's counters plus a ring of
// recent latencies (milliseconds).
type endpointStats struct {
	count  int64
	errors int64
	lat    []float64
	next   int
}

// NewMetrics returns an empty collector; uptime counts from now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: map[string]*endpointStats{}}
}

// Observe records one request against route.
func (m *Metrics) Observe(route string, d time.Duration, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[route]
	if e == nil {
		e = &endpointStats{lat: make([]float64, 0, 64)}
		m.endpoints[route] = e
	}
	e.count++
	if isErr {
		e.errors++
	}
	ms := float64(d) / float64(time.Millisecond)
	if len(e.lat) < latencyWindow {
		e.lat = append(e.lat, ms)
		return
	}
	e.lat[e.next] = ms
	e.next = (e.next + 1) % latencyWindow
}

// inc adds one to each named counter, all under one lock, so a
// Snapshot sees one event's counters move together.
func (m *Metrics) inc(cs ...counter) {
	m.mu.Lock()
	for _, c := range cs {
		m.counts[c]++
	}
	m.mu.Unlock()
}

// CacheSize updates the cached-study gauge.
func (m *Metrics) CacheSize(n int) { m.mu.Lock(); m.cacheSize = n; m.mu.Unlock() }

// SetStream publishes the stream follower's live counters; Snapshot
// reports them under the "stream" key (absent until the first call).
func (m *Metrics) SetStream(c StreamCounters) {
	m.mu.Lock()
	m.stream = &c
	m.mu.Unlock()
}

// attachBreaker lets Snapshot report live breaker state; nil (the
// disabled breaker) reports "closed".
func (m *Metrics) attachBreaker(b *resilience.Breaker) {
	m.mu.Lock()
	m.breaker = b
	m.mu.Unlock()
}

// Snapshot is the JSON shape of /metricz.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Cache         CacheCounters               `json:"cache"`
	Builds        BuildCounters               `json:"builds"`
	Resilience    ResilienceCounters          `json:"resilience"`
	Stream        *StreamCounters             `json:"stream,omitempty"`
}

// StreamCounters summarizes the live stream follower for /metricz: the
// watermark position, the open-day lag behind the newest observation,
// and the stream-defect quarantines.
type StreamCounters struct {
	Following  bool  `json:"following"`
	RecordsIn  int64 `json:"records_in"`
	Watermark  int   `json:"watermark"`
	MaxDaySeen int   `json:"max_day_seen"`
	Lag        int   `json:"lag"`
	Late       int64 `json:"late"`
	Duplicates int64 `json:"duplicates"`
	Sealed     bool  `json:"sealed"`
	Refits     int64 `json:"refits"`
	// RefitOutcomes splits Refits by outcome.
	RefitOutcomes stream.RefitCounts `json:"refit_outcomes"`
}

// ResilienceCounters summarizes admission control, degradation, and
// chaos injection for /metricz and the soak harness.
type ResilienceCounters struct {
	ShedQueueFull    int64  `json:"shed_queue_full"`
	ShedRateLimited  int64  `json:"shed_rate_limited"`
	ShedBreakerOpen  int64  `json:"shed_breaker_open"`
	DegradedServed   int64  `json:"degraded_served"`
	BreakerState     string `json:"breaker_state"`
	BreakerOpens     int64  `json:"breaker_opens"`
	BuildTimeouts    int64  `json:"build_timeouts"`
	ChaosLatencies   int64  `json:"chaos_latencies"`
	ChaosBuildFaults int64  `json:"chaos_build_faults"`
	ChaosSlowClients int64  `json:"chaos_slow_clients"`
}

// ShedTotal sums every shed class.
func (c ResilienceCounters) ShedTotal() int64 {
	return c.ShedQueueFull + c.ShedRateLimited + c.ShedBreakerOpen
}

// EndpointSnapshot summarizes one endpoint.
type EndpointSnapshot struct {
	Count     int64           `json:"count"`
	Errors    int64           `json:"errors"`
	LatencyMS LatencyQuantile `json:"latency_ms"`
}

// LatencyQuantile holds the served latency quantiles in milliseconds.
type LatencyQuantile struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// CacheCounters summarizes registry cache effectiveness.
type CacheCounters struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	DedupJoins int64 `json:"dedup_joins"`
	Evictions  int64 `json:"evictions"`
	Size       int   `json:"size"`
	Capacity   int   `json:"capacity"`
}

// BuildCounters summarizes the study-build lifecycle.
type BuildCounters struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`
	InFlight  int64 `json:"in_flight"`
}

// Snapshot captures a consistent copy of every counter; latency
// quantiles are computed here (internal/stats) over the recent window.
func (m *Metrics) Snapshot(cacheCapacity int) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache: CacheCounters{
			Hits:       c[cacheHits],
			Misses:     c[cacheMisses],
			DedupJoins: c[cacheDedupJoins],
			Evictions:  c[cacheEvictions],
			Size:       m.cacheSize,
			Capacity:   cacheCapacity,
		},
		Builds: BuildCounters{
			Started:   c[buildsStarted],
			Completed: c[buildsCompleted],
			Canceled:  c[buildsCanceled],
			Failed:    c[buildsFailed],
			InFlight:  c[buildsStarted] - c[buildsCompleted] - c[buildsCanceled] - c[buildsFailed],
		},
		Resilience: ResilienceCounters{
			ShedQueueFull:    c[shedQueueFull],
			ShedRateLimited:  c[shedRateLimited],
			ShedBreakerOpen:  c[shedBreakerOpen],
			DegradedServed:   c[degradedServed],
			BreakerState:     m.breaker.State().String(),
			BreakerOpens:     m.breaker.Opens(),
			BuildTimeouts:    c[buildTimeouts],
			ChaosLatencies:   c[chaosLatencies],
			ChaosBuildFaults: c[chaosBuildFaults],
			ChaosSlowClients: c[chaosSlowClients],
		},
	}
	if m.stream != nil {
		sc := *m.stream
		s.Stream = &sc
	}
	// Endpoint rows are assembled in sorted path order so the snapshot
	// (and therefore /metricz) is byte-identical across repeated calls.
	paths := make([]string, 0, len(m.endpoints))
	for path := range m.endpoints {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		e := m.endpoints[path]
		es := EndpointSnapshot{Count: e.count, Errors: e.errors}
		if len(e.lat) > 0 {
			q := func(p float64) float64 {
				v, err := stats.Quantile(e.lat, p)
				if err != nil {
					return 0
				}
				return v
			}
			es.LatencyMS = LatencyQuantile{P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: q(1)}
		}
		s.Requests[path] = es
	}
	return s
}

package server

import (
	"sort"
	"sync"
	"time"

	"rainshine/internal/resilience"
	"rainshine/internal/stats"
)

// latencyWindow bounds the per-endpoint latency reservoir; quantiles
// are computed over the most recent window of samples.
const latencyWindow = 4096

// Metrics aggregates the counters /metricz reports: per-endpoint
// request counts and latency quantiles, cache effectiveness, and the
// study-build lifecycle. All methods are safe for concurrent use.
type Metrics struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointStats
	cache     CacheCounters
	builds    BuildCounters
	res       ResilienceCounters
	stream    *StreamCounters
	breaker   *resilience.Breaker
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

// CacheHit records a registry lookup served from the LRU.
func (m *Metrics) CacheHit() { m.mu.Lock(); m.cache.Hits++; m.mu.Unlock() }

// CacheMiss records a lookup that found no ready study; joined says it
// piggybacked on an in-flight build instead of starting one.
func (m *Metrics) CacheMiss(joined bool) {
	m.mu.Lock()
	m.cache.Misses++
	if joined {
		m.cache.DedupJoins++
	}
	m.mu.Unlock()
}

// CacheEvicted records one LRU eviction.
func (m *Metrics) CacheEvicted() { m.mu.Lock(); m.cache.Evictions++; m.mu.Unlock() }

// CacheSize updates the cached-study gauge.
func (m *Metrics) CacheSize(n int) { m.mu.Lock(); m.cache.Size = n; m.mu.Unlock() }

// BuildStarted / BuildCompleted / BuildCanceled / BuildFailed track the
// study-build lifecycle. InFlight = Started - (Completed+Canceled+Failed).
func (m *Metrics) BuildStarted() { m.mu.Lock(); m.builds.Started++; m.mu.Unlock() }

// BuildCompleted records a build that produced a study.
func (m *Metrics) BuildCompleted() { m.mu.Lock(); m.builds.Completed++; m.mu.Unlock() }

// BuildCanceled records a build abandoned by every waiter.
func (m *Metrics) BuildCanceled() { m.mu.Lock(); m.builds.Canceled++; m.mu.Unlock() }

// BuildFailed records a build that returned an error.
func (m *Metrics) BuildFailed() { m.mu.Lock(); m.builds.Failed++; m.mu.Unlock() }

// BuildTimedOut records a build killed by its own build timeout (a
// subset of Failed).
func (m *Metrics) BuildTimedOut() { m.mu.Lock(); m.res.BuildTimeouts++; m.mu.Unlock() }

// Shed records one refused admission, classified by reason.
func (m *Metrics) Shed(reason resilience.Reason) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch reason {
	case resilience.QueueFull:
		m.res.ShedQueueFull++
	case resilience.RateLimited:
		m.res.ShedRateLimited++
	case resilience.BreakerOpen:
		m.res.ShedBreakerOpen++
	}
}

// Degraded records one response served from a last-good stale study.
func (m *Metrics) Degraded() { m.mu.Lock(); m.res.DegradedServed++; m.mu.Unlock() }

// ChaosLatency / ChaosBuildFault / ChaosSlowClient count injected
// faults so soak runs can assert the chaos harness actually fired.
func (m *Metrics) ChaosLatency() { m.mu.Lock(); m.res.ChaosLatencies++; m.mu.Unlock() }

// ChaosBuildFault records one injected build failure.
func (m *Metrics) ChaosBuildFault() { m.mu.Lock(); m.res.ChaosBuildFaults++; m.mu.Unlock() }

// ChaosSlowClient records one slow-client (trickle-write) simulation.
func (m *Metrics) ChaosSlowClient() { m.mu.Lock(); m.res.ChaosSlowClients++; m.mu.Unlock() }

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
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache:         m.cache,
		Builds:        m.builds,
		Resilience:    m.res,
	}
	if m.stream != nil {
		c := *m.stream
		s.Stream = &c
	}
	s.Cache.Capacity = cacheCapacity
	s.Resilience.BreakerState = m.breaker.State().String()
	s.Resilience.BreakerOpens = m.breaker.Opens()
	s.Builds.InFlight = m.builds.Started - m.builds.Completed - m.builds.Canceled - m.builds.Failed
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

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rainshine"
	"rainshine/internal/parallel"
	"rainshine/internal/resilience"
)

// serverClock is an injectable clock for the rate limiter and breaker.
type serverClock struct {
	mu sync.Mutex
	t  time.Time
}

func newServerClock() *serverClock {
	return &serverClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *serverClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *serverClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// flakyBuild succeeds for the first ok calls, then fails with failErr.
func flakyBuild(ok int, failErr error) buildFunc {
	var calls atomic.Int64
	return func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		if calls.Add(1) > int64(ok) {
			return nil, failErr
		}
		return &rainshine.Study{}, nil
	}
}

// TestRegistryRecoversPanicInParallelBuild checks that a build whose
// parallel task panics on a pool goroutine becomes a build error for its
// caller, as a panic on the build goroutine does, instead of ending the
// process.
func TestRegistryRecoversPanicInParallelBuild(t *testing.T) {
	reg := newRegistry(registryOptions{
		capacity: 1,
		metrics:  NewMetrics(),
		build: func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
			return nil, parallel.ForEach(ctx, 4, 8, func(i int) error {
				if i == 5 {
					panic("task 5 exploded")
				}
				return nil
			})
		},
	})
	_, _, err := reg.Study(context.Background(), StudyConfig{Seed: 1})
	var be *BuildError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "study build panicked: task 5 exploded") {
		t.Fatalf("err = %v, want a BuildError for the panic", err)
	}
}

func TestRegistryDegradesToStaleOnBuildFailure(t *testing.T) {
	boom := errors.New("boom")
	reg := newRegistry(registryOptions{
		capacity: 1,
		metrics:  NewMetrics(),
		build:    flakyBuild(2, boom),
	})
	bg := context.Background()

	a := StudyConfig{Seed: 1}
	stA, _, err := reg.Study(bg, a)
	if err != nil {
		t.Fatal(err)
	}
	// B evicts A from the primary cache; the stale store keeps both.
	if _, _, err := reg.Study(bg, StudyConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("primary cache len = %d, want 1", reg.Len())
	}
	// A's rebuild fails: the last-good copy serves, marked degraded.
	st, deg, err := reg.Study(bg, a)
	if err != nil {
		t.Fatalf("degraded fetch errored: %v", err)
	}
	if st != stA {
		t.Error("degraded fetch did not return the last-good study")
	}
	if deg == nil || deg.Reason != "build_failure" || deg.Detail != "boom" {
		t.Errorf("degradation = %+v, want build_failure/boom", deg)
	}
	// A study never built has no fallback: typed BuildError.
	_, _, err = reg.Study(bg, StudyConfig{Seed: 9})
	var be *BuildError
	if !errors.As(err, &be) || !errors.Is(err, boom) {
		t.Errorf("err = %v, want *BuildError wrapping boom", err)
	}
}

func TestRegistryDegradationReasonBuildTimeout(t *testing.T) {
	reg := newRegistry(registryOptions{
		capacity: 1,
		metrics:  NewMetrics(),
		build:    flakyBuild(2, fmt.Errorf("giving up: %w", context.DeadlineExceeded)),
	})
	bg := context.Background()
	if _, _, err := reg.Study(bg, StudyConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Study(bg, StudyConfig{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	_, deg, err := reg.Study(bg, StudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil || deg.Reason != "build_timeout" {
		t.Errorf("degradation = %+v, want reason build_timeout", deg)
	}
}

func TestRegistryBreakerOpenServesStaleOrSheds(t *testing.T) {
	clock := newServerClock()
	br := resilience.NewBreaker(1, time.Hour, clock.now)
	m := NewMetrics()
	m.attachBreaker(br)
	reg := newRegistry(registryOptions{
		capacity: 1,
		breaker:  br,
		metrics:  m,
		build:    flakyBuild(2, errors.New("boom")),
	})
	bg := context.Background()

	a := StudyConfig{Seed: 1}
	stA, _, err := reg.Study(bg, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Study(bg, StudyConfig{Seed: 2}); err != nil {
		t.Fatal(err) // evicts A from primary; stale keeps it
	}
	// This build fails and trips the breaker (threshold 1). A's stale
	// copy still serves it, marked as a plain build failure: the breaker
	// opened as a consequence, the request itself saw the failed build.
	if _, deg, err := reg.Study(bg, a); err != nil || deg == nil {
		t.Fatalf("st, deg, err = _, %+v, %v; want degraded, nil error", deg, err)
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v, want Open", br.State())
	}
	// Breaker open + stale copy: degraded with reason breaker_open, and
	// crucially no build attempted.
	st, deg, err := reg.Study(bg, a)
	if err != nil {
		t.Fatal(err)
	}
	if st != stA || deg == nil || deg.Reason != "breaker_open" {
		t.Errorf("deg = %+v, want breaker_open serving last-good study", deg)
	}
	// Breaker open + no stale copy: typed shed.
	_, _, err = reg.Study(bg, StudyConfig{Seed: 9})
	se := asShed(err)
	if se == nil || se.Reason != resilience.BreakerOpen {
		t.Errorf("err = %v, want ShedError{BreakerOpen}", err)
	}
	if got := m.Snapshot(1).Resilience.BreakerState; got != "open" {
		t.Errorf("snapshot breaker state = %q, want open", got)
	}
	// After the cooldown the breaker probes: a successful build closes it.
	clock.advance(2 * time.Hour)
	reg.build = flakyBuild(1, errors.New("boom"))
	if _, deg, err := reg.Study(bg, StudyConfig{Seed: 9}); err != nil || deg != nil {
		t.Fatalf("probe build: deg=%+v err=%v, want fresh success", deg, err)
	}
	if br.State() != resilience.Closed {
		t.Errorf("breaker state after probe success = %v, want Closed", br.State())
	}
}

// TestRegistryEvictionRacesInflightBuild drives heavy eviction churn
// while a slow build is in flight; under -race this exercises the
// registry's locking around the primary/stale LRUs and the inflight map.
func TestRegistryEvictionRacesInflightBuild(t *testing.T) {
	slowKey := StudyConfig{Seed: 1000}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		if cfg == slowKey {
			once.Do(func() { close(entered) })
			<-release
		}
		return &rainshine.Study{}, nil
	}
	m := NewMetrics()
	reg := newRegistry(registryOptions{capacity: 2, metrics: m, build: build})
	bg := context.Background()

	done := make(chan error, 1)
	go func() {
		_, _, err := reg.Study(bg, slowKey)
		done <- err
	}()
	<-entered
	// Churn the caches hard while the slow build holds its inflight slot.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				cfg := StudyConfig{Seed: uint64(1 + g*25 + i)}
				if _, _, err := reg.Study(bg, cfg); err != nil {
					t.Errorf("churn build: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slow build failed: %v", err)
	}
	if reg.Len() != 2 {
		t.Errorf("cache len = %d, want capacity 2", reg.Len())
	}
	// The slow study published after the churn: it must be resident now.
	before := m.Snapshot(2).Builds.Started
	if _, _, err := reg.Study(bg, slowKey); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(2).Builds.Started; got != before {
		t.Error("slow study was not cached after racing evictions")
	}
}

// blockingServer builds a Server whose q3 class admits one request with
// no wait queue, and whose builds block until release is closed.
func blockingServer(t *testing.T, rc ResilienceConfig) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := New(Config{
		CacheSize:  2,
		Resilience: rc,
		build: func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
			once.Do(func() { close(entered) })
			select {
			case <-release:
				return &rainshine.Study{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Logf: func(string, ...any) {},
	})
	return s, entered, release
}

func decodeAPIError(t *testing.T, rr *httptest.ResponseRecorder) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding error body %q: %v", rr.Body.String(), err)
	}
	return e
}

func TestServerShedsQ3WhenQueueFull(t *testing.T) {
	s, entered, release := blockingServer(t, ResilienceConfig{Q3Concurrent: 1, Q3Queue: -1})
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		req := httptest.NewRequest("GET", "/v1/q3", nil).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/q3", nil))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	e := decodeAPIError(t, rr)
	if e.Reason != string(resilience.QueueFull) || e.RetryAfterSeconds < 1 {
		t.Errorf("body = %+v, want reason queue_full with retry advice", e)
	}
	// The cheap endpoints use their own semaphore: still admitted. The
	// build blocks, so use a short-deadline request and expect 504 —
	// admission let it through (the point of shedding q3 first).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	rr2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr2, httptest.NewRequest("GET", "/v1/quality", nil).WithContext(ctx2))
	if rr2.Code == http.StatusTooManyRequests {
		t.Errorf("cheap endpoint was shed by the q3 limiter: %d", rr2.Code)
	}
	if got := s.Metrics().Snapshot(2).Resilience.ShedQueueFull; got != 1 {
		t.Errorf("shed_queue_full = %d, want 1", got)
	}
}

func TestServerRateLimits(t *testing.T) {
	clock := newServerClock()
	s := New(Config{
		CacheSize:  2,
		Resilience: ResilienceConfig{RPS: 1, Burst: 1},
		build: func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
			return nil, errors.New("no build under rate-limit test")
		},
		Logf: func(string, ...any) {},
		now:  clock.now,
	})
	// First request spends the one burst token; the rate check happens
	// before the registry, so the failing build yields a typed 503.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/quality", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("first request status = %d, want 503 (build failure)", rr.Code)
	}
	// Second request inside the same second: rate-limited.
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/quality", nil))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", rr.Code)
	}
	if e := decodeAPIError(t, rr); e.Reason != string(resilience.RateLimited) {
		t.Errorf("reason = %q, want rate_limited", e.Reason)
	}
	if rr.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", rr.Header().Get("Retry-After"))
	}
	// Health and metrics stay exempt while shedding.
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("healthz status under rate limit = %d, want 200", rr.Code)
	}
	// A second later the bucket refills.
	clock.advance(time.Second)
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/quality", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("post-refill status = %d, want 503 (admitted again)", rr.Code)
	}
	snap := s.Metrics().Snapshot(2)
	if snap.Resilience.ShedRateLimited != 1 {
		t.Errorf("shed_rate_limited = %d, want 1", snap.Resilience.ShedRateLimited)
	}
}

func TestServerBreakerOpensAfterRepeatedBuildFailures(t *testing.T) {
	clock := newServerClock()
	s := New(Config{
		CacheSize:  2,
		Resilience: ResilienceConfig{BreakerThreshold: 2, BreakerCooldown: time.Hour},
		build: func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
			return nil, errors.New("boom")
		},
		Logf: func(string, ...any) {},
		now:  clock.now,
	})
	// Two failed builds trip the breaker; requests use distinct configs
	// so each triggers its own build attempt.
	for seed := 1; seed <= 2; seed++ {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET",
			fmt.Sprintf("/v1/quality?seed=%d", seed), nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("build-failure status = %d, want 503", rr.Code)
		}
		if e := decodeAPIError(t, rr); e.Reason != "build_failure" {
			t.Fatalf("reason = %q, want build_failure", e.Reason)
		}
	}
	// Breaker now open: next request sheds without touching the build.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/quality?seed=3", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open status = %d, want 503", rr.Code)
	}
	if e := decodeAPIError(t, rr); e.Reason != string(resilience.BreakerOpen) {
		t.Errorf("reason = %q, want breaker_open", e.Reason)
	}
	// Health degrades but keeps answering.
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	var hz struct {
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Breaker != "open" {
		t.Errorf("healthz = %+v, want degraded/open", hz)
	}
	snap := s.Metrics().Snapshot(2)
	if snap.Resilience.ShedBreakerOpen != 1 || snap.Resilience.BreakerOpens != 1 {
		t.Errorf("resilience counters = %+v, want 1 breaker shed, 1 open", snap.Resilience)
	}
}

// TestMetriczCountersUnderConcurrentOverload hammers the q3 endpoint
// past its admission limits and checks the shed counters add up: every
// request either held a slot, waited in the bounded queue, or was shed,
// and /metricz stays readable throughout.
func TestMetriczCountersUnderConcurrentOverload(t *testing.T) {
	s, entered, release := blockingServer(t, ResilienceConfig{Q3Concurrent: 1, Q3Queue: -1})

	ctx, cancel := context.WithCancel(context.Background())
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		req := httptest.NewRequest("GET", "/v1/q3", nil).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered

	const overload = 16
	codes := make(chan int, overload)
	var wg sync.WaitGroup
	for i := 0; i < overload; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/q3", nil))
			codes <- rr.Code
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("overload request got %d, want 429", code)
		}
	}
	// Metrics stay readable mid-overload and account for every shed.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metricz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metricz status = %d, want 200", rr.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Resilience.ShedQueueFull != overload {
		t.Errorf("shed_queue_full = %d, want %d", snap.Resilience.ShedQueueFull, overload)
	}
	if snap.Resilience.ShedTotal() != overload {
		t.Errorf("shed total = %d, want %d", snap.Resilience.ShedTotal(), overload)
	}
	cancel()
	close(release)
	<-holder
}

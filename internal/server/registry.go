package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rainshine"
	"rainshine/internal/resilience"
)

// StudyConfig canonically identifies one study: every request parameter
// that feeds simulation. Two requests with equal (normalized) configs
// share one cached study; everything else about a request (workload,
// granularity, price ratios) is an evaluation parameter and never forces
// a rebuild.
type StudyConfig struct {
	Seed   uint64
	Days   int
	Racks  [2]int
	Faults bool
}

// Normalize resolves defaulted fields so that "unset" and "explicitly
// set to the default" map to the same cache key.
func (c StudyConfig) Normalize() StudyConfig {
	if c.Seed == 0 {
		c.Seed = rainshine.DefaultSeed
	}
	if c.Days == 0 {
		c.Days = 930
	}
	if c.Racks[0] == 0 && c.Racks[1] == 0 {
		c.Racks = [2]int{331, 290} // paper-scale fleet (Table I)
	}
	return c
}

// Key is the canonical cache key.
func (c StudyConfig) Key() string {
	c = c.Normalize()
	return fmt.Sprintf("seed=%d days=%d racks=%d,%d faults=%t",
		c.Seed, c.Days, c.Racks[0], c.Racks[1], c.Faults)
}

// Options translates the config to rainshine functional options.
func (c StudyConfig) Options() []rainshine.Option {
	c = c.Normalize()
	opts := []rainshine.Option{
		rainshine.WithSeed(c.Seed),
		rainshine.WithDays(c.Days),
		rainshine.WithRacks(c.Racks[0], c.Racks[1]),
	}
	if c.Faults {
		opts = append(opts, rainshine.WithFaults(rainshine.DefaultFaults()))
	}
	return opts
}

// buildFunc constructs a study; swapped out by tests.
type buildFunc func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error)

// buildStudyWith returns the production buildFunc. workers bounds each
// study's simulation and analysis fan-out (cart.Config.Workers
// semantics: 0 means GOMAXPROCS, 1 forces serial); it is a server-level
// tuning knob, not part of the cache key, because every worker count
// produces byte-identical studies.
func buildStudyWith(workers int) buildFunc {
	return func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		opts := cfg.Options()
		if workers != 0 {
			opts = append(opts, rainshine.WithWorkers(workers))
		}
		return rainshine.NewStudyContext(ctx, opts...)
	}
}

// BuildError wraps a failed study build for which no last-good fallback
// exists. The server maps it to a typed 503: the request was well
// formed, the service could not produce the answer right now.
type BuildError struct {
	Key string
	Err error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("study build failed (%s): %v", e.Key, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// Degradation marks a response served from the last-good stale copy of
// a study instead of a fresh build. Reason and Detail are derived only
// from the failure class and its (deterministic) error text, never from
// the clock or attempt counters, so degraded response bodies are
// byte-stable for a fixed seed.
type Degradation struct {
	// Reason is "build_failure", "build_timeout", or "breaker_open".
	Reason string
	// Detail is the deterministic cause description.
	Detail string
}

// buildCall is one in-flight study construction shared by every request
// that asked for the same config while it ran (singleflight). The build
// runs detached from any single request's context; instead each waiter
// holds a reference, and when the last waiter abandons (timeout, client
// gone) the build itself is canceled — a study nobody is waiting for is
// never simulated to completion. Independently of any waiter, the build
// is bounded by the registry's buildTimeout so a detached build can
// never run forever.
type buildCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int

	// set before done is closed
	study *rainshine.Study
	err   error
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key   string
	study *rainshine.Study
}

// lruCache is a tiny LRU used for both the primary study cache and the
// last-good stale store. Not safe for concurrent use on its own; the
// registry's mutex guards it.
type lruCache struct {
	capacity int
	order    []*cacheEntry // front = most recently used
	byKey    map[string]*cacheEntry
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{capacity: capacity, byKey: make(map[string]*cacheEntry)}
}

// get returns the cached study and touches it to the front.
func (c *lruCache) get(key string) (*rainshine.Study, bool) {
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.touch(e)
	return e.study, true
}

// touch moves e to the front of the order.
func (c *lruCache) touch(e *cacheEntry) {
	for i, x := range c.order {
		if x == e {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = e
			return
		}
	}
}

// put inserts (or refreshes) key, evicting from the tail past capacity.
// evicted reports how many entries fell off.
func (c *lruCache) put(key string, st *rainshine.Study) (evicted int) {
	if old, ok := c.byKey[key]; ok {
		// A racing build of the same key landed first; keep the old
		// entry (identical by determinism) and just refresh it.
		c.touch(old)
		return 0
	}
	e := &cacheEntry{key: key, study: st}
	c.byKey[key] = e
	c.order = append([]*cacheEntry{e}, c.order...)
	for len(c.order) > c.capacity {
		last := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		delete(c.byKey, last.key)
		evicted++
	}
	return evicted
}

func (c *lruCache) len() int { return len(c.order) }

// registryOptions parameterize newRegistry.
type registryOptions struct {
	capacity     int
	buildTimeout time.Duration       // bounds each detached build; 0 means 10m
	breaker      *resilience.Breaker // nil disables the build breaker
	metrics      *Metrics
	build        buildFunc
}

// registry is the study cache: singleflight deduplication in front of a
// size-bounded LRU, with a circuit breaker around builds and a
// last-good stale store for graceful degradation. All methods are safe
// for concurrent use.
type registry struct {
	build        buildFunc
	buildTimeout time.Duration
	breaker      *resilience.Breaker
	metrics      *Metrics

	mu       sync.Mutex
	cache    *lruCache // fresh studies
	stale    *lruCache // last-good fallbacks, retained past primary eviction
	inflight map[string]*buildCall
}

// newRegistry assembles the cache. The stale store is sized at twice
// the primary capacity so a fallback survives one generation of primary
// eviction — long enough to cover a failed rebuild of a recently
// evicted study.
func newRegistry(opts registryOptions) *registry {
	if opts.build == nil {
		opts.build = buildStudyWith(0)
	}
	if opts.buildTimeout <= 0 {
		opts.buildTimeout = 10 * time.Minute
	}
	capacity := opts.capacity
	if capacity < 1 {
		capacity = 1
	}
	return &registry{
		build:        opts.build,
		buildTimeout: opts.buildTimeout,
		breaker:      opts.breaker,
		metrics:      opts.metrics,
		cache:        newLRU(capacity),
		stale:        newLRU(2 * capacity),
		inflight:     make(map[string]*buildCall),
	}
}

// Study returns the cached study for cfg, joining an in-flight build or
// starting one as needed. It blocks until the study is ready or ctx is
// done. On build failure (or an open breaker) it degrades: if a
// last-good copy of the same study exists it is returned with a non-nil
// Degradation marker; otherwise the failure surfaces as a typed error
// (BuildError, or the breaker's ShedError). Build errors are never
// cached.
func (r *registry) Study(ctx context.Context, cfg StudyConfig) (*rainshine.Study, *Degradation, error) {
	key := cfg.Key()

	r.mu.Lock()
	if st, ok := r.cache.get(key); ok {
		r.mu.Unlock()
		r.metrics.inc(cacheHits)
		return st, nil, nil
	}
	bc, joined := r.inflight[key]
	if joined {
		bc.waiters++
	} else {
		// An open breaker means builds are currently failing: don't
		// start another, serve the last-good copy or shed.
		if err := r.breaker.Allow(); err != nil {
			st, ok := r.stale.get(key)
			r.mu.Unlock()
			if ok {
				return st, &Degradation{
					Reason: "breaker_open",
					Detail: "study build circuit open; serving last-good study",
				}, nil
			}
			return nil, nil, err
		}
		// The build is singleflight-shared: it must outlive the first
		// requester's deadline, so it detaches from the request ctx and
		// is canceled when every waiter abandons it (see run) or when
		// its own build timeout expires — whichever comes first.
		//lint:allow ctxflow detached singleflight build outlives any one request
		bctx, cancel := context.WithTimeout(context.Background(), r.buildTimeout)
		bc = &buildCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
		r.inflight[key] = bc
		go r.run(bctx, key, cfg, bc)
	}
	r.mu.Unlock()
	if joined {
		r.metrics.inc(cacheMisses, cacheDedupJoins)
	} else {
		r.metrics.inc(cacheMisses)
	}

	select {
	case <-bc.done:
		if bc.err != nil {
			return r.degrade(key, bc.err)
		}
		return bc.study, nil, nil
	case <-ctx.Done():
		r.mu.Lock()
		bc.waiters--
		abandoned := bc.waiters == 0
		r.mu.Unlock()
		if abandoned {
			bc.cancel()
		}
		return nil, nil, ctx.Err()
	}
}

// degrade resolves a failed build: the last-good stale copy when one
// exists, a typed BuildError otherwise. The Detail strings quote only
// deterministic error text (the chaos sentinel, context errors), so
// degraded bodies are byte-stable.
func (r *registry) degrade(key string, buildErr error) (*rainshine.Study, *Degradation, error) {
	r.mu.Lock()
	st, ok := r.stale.get(key)
	r.mu.Unlock()
	if !ok {
		return nil, nil, &BuildError{Key: key, Err: buildErr}
	}
	reason := "build_failure"
	if errors.Is(buildErr, context.DeadlineExceeded) {
		reason = "build_timeout"
	}
	return st, &Degradation{Reason: reason, Detail: buildErr.Error()}, nil
}

// run executes one build and publishes its result. A panicking build
// becomes an error for its waiters: builds run outside any request
// goroutine, so the HTTP panic-recovery middleware cannot catch them.
// The breaker and build counters are recorded before done is closed so
// a strictly sequential client observes state transitions
// deterministically.
func (r *registry) run(ctx context.Context, key string, cfg StudyConfig, bc *buildCall) {
	defer bc.cancel()
	r.metrics.inc(buildsStarted)
	study, err := func() (st *rainshine.Study, err error) {
		defer func() {
			if p := recover(); p != nil {
				st, err = nil, fmt.Errorf("server: study build panicked: %v", p)
			}
		}()
		return r.build(ctx, cfg)
	}()

	r.mu.Lock()
	bc.study, bc.err = study, err
	delete(r.inflight, key)
	if err == nil {
		r.insert(key, study)
	}
	r.mu.Unlock()

	switch {
	case err == nil:
		r.breaker.RecordSuccess()
		r.metrics.inc(buildsCompleted)
	case errors.Is(context.Cause(ctx), context.Canceled):
		// Abandoned by every waiter: not judged, not a service failure.
		r.breaker.RecordCanceled()
		r.metrics.inc(buildsCanceled)
	case errors.Is(err, context.DeadlineExceeded):
		// The detached build's own timeout: a failure mode.
		r.breaker.RecordFailure()
		r.metrics.inc(buildTimeouts, buildsFailed)
	default:
		r.breaker.RecordFailure()
		r.metrics.inc(buildsFailed)
	}
	close(bc.done)
}

// insert publishes a built study as both the primary cache entry and
// the last-good fallback. Caller holds r.mu.
func (r *registry) insert(key string, st *rainshine.Study) {
	for i := r.cache.put(key, st); i > 0; i-- {
		r.metrics.inc(cacheEvictions)
	}
	r.stale.put(key, st)
	r.metrics.CacheSize(r.cache.len())
}

// Len reports the number of cached (fresh) studies.
func (r *registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache.len()
}

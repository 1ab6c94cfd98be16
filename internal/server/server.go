// Package server is the rainshine analysis daemon: the paper's Q1-Q3
// operator questions (plus failure prediction and data quality) served
// as a JSON HTTP API instead of one-shot batch runs.
//
// The core is a study registry — studies are keyed by canonicalized
// simulation config, built at most once under concurrent demand
// (singleflight), held in a size-bounded LRU, and evaluated concurrently
// by request goroutines. Determinism makes this safe: a study is a pure
// function of its config, so a cached study answers every future request
// for that config byte-identically to a fresh batch run.
//
// Endpoints:
//
//	GET /v1/q1       spare provisioning     (study params + workload, hourly)
//	GET /v1/q2       vendor comparison      (study params + ratios)
//	GET /v1/q3       climate guidance       (study params)
//	GET /v1/predict  failure prediction     (study params)
//	GET /v1/quality  DataQuality report     (study params)
//	GET /v1/stream   live stream watermark state (long-poll on ?watermark=N)
//	GET /healthz     liveness probe
//	GET /metricz     request/latency/cache/build counters (+ stream section)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"rainshine"
	"rainshine/internal/faults"
	"rainshine/internal/resilience"
)

// Config parameterizes the daemon.
type Config struct {
	// CacheSize bounds the study LRU (default 4 — full-scale studies
	// hold the whole fleet's telemetry, so the cache is deliberately
	// small).
	CacheSize int
	// Timeout bounds each request end-to-end, including any study build
	// it triggers (default 5m; full-scale builds take tens of seconds).
	Timeout time.Duration
	// Logf sinks request-path diagnostics (default log.Printf).
	Logf func(format string, args ...any)
	// Workers bounds each study's simulation and analysis fan-out
	// (cart.Config.Workers semantics: 0 means GOMAXPROCS, 1 forces
	// serial). Not part of the study cache key: every worker count
	// produces byte-identical studies and reports.
	Workers int
	// Warmup materializes every table and figure of a freshly built
	// study — through the study's worker pool — before the registry
	// publishes it, so the first requests are served from memory. With
	// or without it, each published study computes each derived answer
	// (the sub-analyses Q1-Q3 share, the failure predictor) only once,
	// on first use.
	Warmup bool
	// Resilience tunes admission control, load shedding, the build
	// circuit breaker, and the detached-build timeout. The zero value
	// applies generous defaults; see ResilienceConfig.
	Resilience ResilienceConfig
	// Chaos, when non-nil, turns on deterministic fault injection:
	// seeded build failures, latency spikes, and slow-client
	// simulation. Production runs leave it nil.
	Chaos *faults.ChaosConfig
	// Follow, when non-nil, attaches a live stream follower: the daemon
	// tails the configured log, maintains a watermark study, and serves
	// its state on /v1/stream (run it with Server.Follow).
	Follow *FollowConfig

	// build overrides study construction (tests).
	build buildFunc
	// now overrides the clock fed to the rate limiter and breaker
	// (tests); nil means time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the daemon: registry + admission + metrics + HTTP handlers.
type Server struct {
	cfg     Config
	reg     *registry
	metrics *Metrics
	// now is the injected clock shared with the admission controller
	// and breaker; tests freeze it.
	now      func() time.Time
	adm      *admission
	breaker  *resilience.Breaker
	chaos    *chaosState // nil when chaos mode is off
	follower *follower   // nil when no stream is attached
	routes   *http.ServeMux
	handler  http.Handler
}

// New assembles a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rc := cfg.Resilience.withDefaults()
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	m := NewMetrics()
	build := cfg.build
	if build == nil {
		build = buildStudyWith(cfg.Workers)
	}
	if cfg.Warmup {
		inner := build
		build = func(ctx context.Context, sc StudyConfig) (*rainshine.Study, error) {
			st, err := inner(ctx, sc)
			if err != nil {
				return nil, err
			}
			// Warm inside the build so the singleflight publishes a
			// study whose figure cache is already populated.
			if err := st.Warmup(ctx); err != nil {
				return nil, fmt.Errorf("server: warming study: %w", err)
			}
			return st, nil
		}
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		now:     now,
		adm:     newAdmission(rc, now),
		breaker: resilience.NewBreaker(rc.BreakerThreshold, rc.BreakerCooldown, now),
	}
	m.attachBreaker(s.breaker)
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		s.chaos = &chaosState{ch: faults.NewChaos(*cfg.Chaos)}
		// Chaos wraps outermost: an injected failure skips the real
		// build (and its warmup) entirely, like a crashed builder.
		build = chaosBuildFunc(build, s.chaos.ch, m)
	}
	s.reg = newRegistry(registryOptions{
		capacity:     cfg.CacheSize,
		buildTimeout: rc.BuildTimeout,
		breaker:      s.breaker,
		metrics:      m,
		build:        build,
	})
	if cfg.Follow != nil {
		s.follower = newFollower(*cfg.Follow, cfg.Workers, m, cfg.Logf)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/q1", s.handleQ1)
	mux.HandleFunc("GET /v1/q2", s.handleQ2)
	mux.HandleFunc("GET /v1/q3", s.handleQ3)
	mux.HandleFunc("GET /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/quality", s.handleQuality)
	s.routes = mux
	// Middleware, outermost first: metrics see every request including
	// sheds; panics become 500s; the request deadline starts before
	// admission so queue waits are bounded by it; admission sheds
	// before any study work; chaos perturbs only what was admitted.
	s.handler = s.instrument(s.recover(s.timeout(s.admit(s.chaosMiddleware(mux)))))
	return s
}

// Handler returns the fully-wrapped HTTP handler (metrics, panic
// recovery, per-request timeout, routing).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the collector (the CLI logs a summary on shutdown).
func (s *Server) Metrics() *Metrics { return s.metrics }

// apiError is the JSON error envelope. Sheds and build failures carry
// a machine-readable reason and an advisory Retry-After mirror.
type apiError struct {
	Error             string `json:"error"`
	Reason            string `json:"reason,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// writeJSON encodes v; an encoding failure (a bug — report types are
// JSON-stable by contract) degrades to a 500.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		s.cfg.Logf("server: encoding response: %v", err)
		status = http.StatusInternalServerError
		buf = []byte(`{"error":"internal: response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

// writeError maps err to an HTTP status: typed sheds become 429/503
// with Retry-After, build failures without a fallback become 503, bad
// params are the caller's fault, deadline/cancel map to timeout, and
// everything else is internal.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if se := asShed(err); se != nil {
		s.writeShed(w, se)
		return
	}
	if be := asBuildError(err); be != nil {
		s.writeBuildFailure(w, be)
		return
	}
	var reason string
	var size *rainshine.StudySizeError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		err = fmt.Errorf("request deadline exceeded (%s): %w", s.cfg.Timeout, err)
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	case errors.As(err, &size):
		reason = "study_too_large"
	}
	s.writeJSON(w, status, apiError{Error: err.Error(), Reason: reason})
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// unmatchedRoute is the one metrics key for every request that matches
// no route (404 or 405), so probing unknown paths cannot grow /metricz.
const unmatchedRoute = "unmatched"

// instrument records per-route counts and latency.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := s.now()
		next.ServeHTTP(rec, r)
		s.metrics.Observe(s.routeKey(r), s.now().Sub(start), rec.status >= 400)
	})
}

// routeKey names the route r matches: the path part of its mux pattern
// ("GET /v1/q3" is "/v1/q3"), or unmatchedRoute.
func (s *Server) routeKey(r *http.Request) string {
	_, pattern := s.routes.Handler(r)
	if pattern == "" {
		return unmatchedRoute
	}
	return pattern[strings.IndexByte(pattern, ' ')+1:]
}

// recover converts handler panics into 500s instead of killing the
// connection (and, pre-Go1.8-style, the daemon's other requests).
func (s *Server) recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Logf("server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				s.writeJSON(w, http.StatusInternalServerError,
					apiError{Error: fmt.Sprintf("internal: panic: %v", p)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// timeout bounds each request's context; study builds triggered by the
// request observe the same deadline through the registry.
func (s *Server) timeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// degradedReport is the JSON envelope a stale (last-good) answer ships
// in. Healthy responses stay bare reports — byte-identical to the batch
// path — so the envelope appears only when degradation actually
// happened, flagged redundantly in the X-Rainshine-Degraded header.
type degradedReport struct {
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason"`
	Detail   string `json:"detail"`
	Data     any    `json:"data"`
}

// resolve parses the shared simulation params and gets-or-builds the
// study through the registry. Callers must have validated their own
// evaluation params first, so a malformed request never triggers a
// (potentially minutes-long) study build. A non-nil Degradation means
// the study is a last-good stale copy and the response must say so.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*rainshine.Study, *Degradation, bool) {
	cfg, err := parseStudyConfig(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	st, deg, err := s.reg.Study(r.Context(), cfg)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return nil, nil, false
	}
	return st, deg, true
}

// evaluate runs one study analysis and writes the report or the error.
// Degraded (stale-study) answers are wrapped in the degradedReport
// envelope; everything in it is deterministic for a fixed seed.
func (s *Server) evaluate(w http.ResponseWriter, deg *Degradation, rep any, err error) {
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if deg != nil {
		s.metrics.inc(degradedServed)
		w.Header().Set("X-Rainshine-Degraded", deg.Reason)
		s.writeJSON(w, http.StatusOK, degradedReport{
			Degraded: true, Reason: deg.Reason, Detail: deg.Detail, Data: rep,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleQ1(w http.ResponseWriter, r *http.Request) {
	wl, hourly, err := parseQ1Params(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	st, deg, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rep, err := st.SpareProvisioning(wl, hourly)
	s.evaluate(w, deg, rep, err)
}

func (s *Server) handleQ2(w http.ResponseWriter, r *http.Request) {
	ratios, err := parseRatios(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	st, deg, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rep, err := st.VendorComparison(ratios...)
	s.evaluate(w, deg, rep, err)
}

func (s *Server) handleQ3(w http.ResponseWriter, r *http.Request) {
	st, deg, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rep, err := st.ClimateGuidanceContext(r.Context())
	s.evaluate(w, deg, rep, err)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	st, deg, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rep, err := st.FailurePrediction()
	s.evaluate(w, deg, rep, err)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	st, deg, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rep, err := st.Quality()
	s.evaluate(w, deg, rep, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.breaker.State() != resilience.Closed {
		status = "degraded" // builds are failing; cached reads still serve
	}
	s.writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		Breaker       string  `json:"breaker"`
		CachedStudies int     `json:"cached_studies"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{status, s.breaker.State().String(), s.reg.Len(), s.now().Sub(s.metrics.start).Seconds()})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.cfg.CacheSize))
}

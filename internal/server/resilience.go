package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"rainshine/internal/resilience"
)

// ResilienceConfig groups the serving tier's overload-protection knobs.
// The zero value means "defaults": generous limits that never shed a
// modest workload but still bound the damage a demand shock can do.
type ResilienceConfig struct {
	// MaxConcurrent bounds concurrently-served /v1 requests outside q3
	// (default 256); MaxQueue bounds how many more may wait for a slot
	// before shedding (default 512).
	MaxConcurrent int
	MaxQueue      int
	// Q3Concurrent / Q3Queue are the same bounds for /v1/q3. A warm q3
	// read is a memo read; what the class bounds is each study's first
	// Climate fit, which a q3 read on an unwarmed study runs. They are
	// deliberately smaller (defaults 32 / 64): under overload the
	// daemon sheds q3 first and keeps serving the other reads.
	Q3Concurrent int
	Q3Queue      int
	// RPS caps admitted requests per second across all /v1 endpoints
	// via a token bucket (default 0: unlimited). Burst is the bucket
	// depth (default 2×RPS, minimum 1).
	RPS   float64
	Burst int
	// BreakerThreshold is the consecutive build failures that trip the
	// study-build circuit breaker (default 5; negative disables).
	// BreakerCooldown is how long the breaker stays open before probing
	// (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BuildTimeout bounds each detached singleflight study build
	// regardless of waiters (default 10m).
	BuildTimeout time.Duration
}

func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	if rc.MaxConcurrent == 0 {
		rc.MaxConcurrent = 256
	}
	if rc.MaxQueue == 0 {
		rc.MaxQueue = 512
	}
	if rc.Q3Concurrent == 0 {
		rc.Q3Concurrent = 32
	}
	if rc.Q3Queue == 0 {
		rc.Q3Queue = 64
	}
	if rc.Burst == 0 {
		rc.Burst = int(2 * rc.RPS)
	}
	if rc.BreakerThreshold == 0 {
		rc.BreakerThreshold = 5
	}
	if rc.BreakerCooldown <= 0 {
		rc.BreakerCooldown = 30 * time.Second
	}
	if rc.BuildTimeout <= 0 {
		rc.BuildTimeout = 10 * time.Minute
	}
	return rc
}

// admission holds the server's assembled overload controls.
type admission struct {
	api  *resilience.Limiter     // every /v1 endpoint except q3
	q3   *resilience.Limiter     // /v1/q3: each study's first Climate fit
	rate *resilience.TokenBucket // global, nil = unlimited
}

func newAdmission(rc ResilienceConfig, now func() time.Time) *admission {
	return &admission{
		api:  resilience.NewLimiter(rc.MaxConcurrent, rc.MaxQueue, time.Second),
		q3:   resilience.NewLimiter(rc.Q3Concurrent, rc.Q3Queue, 2*time.Second),
		rate: resilience.NewTokenBucket(rc.RPS, rc.Burst, now),
	}
}

// exemptPath reports whether a path bypasses admission control and
// chaos injection: liveness probes and metrics must stay readable while
// the daemon sheds everything else, or the operator flies blind exactly
// when it matters.
func exemptPath(path string) bool {
	return path == "/healthz" || path == "/metricz"
}

// admit is the admission-control middleware: the global token bucket
// first (cheapest check), then the endpoint class's semaphore with its
// bounded wait queue. Sheds never reach the study registry.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if err := s.adm.rate.Allow(); err != nil {
			s.writeError(w, http.StatusTooManyRequests, err)
			return
		}
		lim := s.adm.api
		if r.URL.Path == "/v1/q3" {
			lim = s.adm.q3
		}
		if err := lim.Acquire(r.Context()); err != nil {
			s.writeError(w, http.StatusTooManyRequests, err)
			return
		}
		defer lim.Release()
		next.ServeHTTP(w, r)
	})
}

// writeShed renders a typed refusal: queue and rate sheds are the
// caller's cue to back off (429), an open breaker is the service's own
// fault (503). Both carry Retry-After, in the header and the body.
func (s *Server) writeShed(w http.ResponseWriter, e *resilience.ShedError) {
	if c, ok := shedCounters[e.Reason]; ok {
		s.metrics.inc(c)
	}
	secs := int(e.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	status := http.StatusTooManyRequests
	if e.Reason == resilience.BreakerOpen {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, status, apiError{
		Error:             e.Error(),
		Reason:            string(e.Reason),
		RetryAfterSeconds: secs,
	})
}

// writeBuildFailure renders a failed build with no fallback: a typed
// 503 with a short constant Retry-After (the next attempt may well
// succeed — build errors are never cached).
func (s *Server) writeBuildFailure(w http.ResponseWriter, e *BuildError) {
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, apiError{
		Error:             e.Error(),
		Reason:            "build_failure",
		RetryAfterSeconds: 1,
	})
}

// asShed unwraps err to a ShedError, nil otherwise.
func asShed(err error) *resilience.ShedError {
	var se *resilience.ShedError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// asBuildError unwraps err to a BuildError, nil otherwise.
func asBuildError(err error) *BuildError {
	var be *BuildError
	if errors.As(err, &be) {
		return be
	}
	return nil
}

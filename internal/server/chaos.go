package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rainshine"
	"rainshine/internal/faults"
)

// chaosState pairs the deterministic fault plan with the request
// sequence counter that indexes its per-request decisions.
type chaosState struct {
	ch  *faults.Chaos
	seq atomic.Uint64
}

// chaosMiddleware injects seeded latency spikes and slow-client
// (trickle-write) simulation into the request path when chaos mode is
// on. Fault *selection* is deterministic per (seed, request sequence
// number); only timing is perturbed, never response bytes, so chaos
// runs still satisfy the byte-determinism contract.
func (s *Server) chaosMiddleware(next http.Handler) http.Handler {
	if s.chaos == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		seq := s.chaos.seq.Add(1)
		if d := s.chaos.ch.Latency(seq); d > 0 {
			s.metrics.inc(chaosLatencies)
			sleepCtx(r.Context(), d)
		}
		if chunk, delay, ok := s.chaos.ch.SlowClient(seq); ok {
			s.metrics.inc(chaosSlowClients)
			w = &slowWriter{ResponseWriter: w, chunk: chunk, delay: delay, ctx: r.Context()}
		}
		next.ServeHTTP(w, r)
	})
}

// sleepCtx pauses for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d) //lint:allow clockinject injected chaos latency only delays delivery; no timestamp reaches a response
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// slowWriter drains response bodies in small chunks with pauses,
// simulating a slow client holding a connection (and its admission
// slot) open. Headers and status pass through untouched.
type slowWriter struct {
	http.ResponseWriter
	chunk int
	delay time.Duration
	ctx   context.Context
}

func (sw *slowWriter) Write(p []byte) (int, error) {
	var n int
	for len(p) > 0 {
		c := sw.chunk
		if c > len(p) {
			c = len(p)
		}
		m, err := sw.ResponseWriter.Write(p[:c])
		n += m
		if err != nil {
			return n, err
		}
		p = p[c:]
		if len(p) > 0 {
			sleepCtx(sw.ctx, sw.delay)
			if sw.ctx.Err() != nil {
				return n, sw.ctx.Err()
			}
		}
	}
	return n, nil
}

// chaosBuildFunc wraps a buildFunc with deterministic injected
// failures: the chaos plan decides per (study key, attempt number)
// whether the build fails before any real work starts. Attempt numbers
// count per key, so the decision sequence for a given study is
// independent of what other studies are doing.
func chaosBuildFunc(inner buildFunc, ch *faults.Chaos, m *Metrics) buildFunc {
	var mu sync.Mutex
	attempts := make(map[string]int)
	return func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		key := cfg.Key()
		mu.Lock()
		attempts[key]++
		n := attempts[key]
		mu.Unlock()
		if err := ch.BuildFault(key, n); err != nil {
			m.inc(chaosBuildFaults)
			return nil, err
		}
		return inner(ctx, cfg)
	}
}

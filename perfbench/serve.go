package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rainshine"
	"rainshine/internal/rng"
	"rainshine/internal/server"
)

// request is one scheduled GET and the library call that answers it.
type request struct {
	class string
	path  string
	// layer names the library layer call runs in; "" for a memoized
	// answer that has no per-layer metric.
	layer string
	call  func(st *rainshine.Study) (any, error)
}

var allWorkloads = []rainshine.Workload{
	rainshine.W1, rainshine.W2, rainshine.W3, rainshine.W4, rainshine.W5, rainshine.W6, rainshine.W7,
}

func q1Request(class, query string, wl rainshine.Workload, hourly bool) request {
	return request{
		class: class,
		path:  fmt.Sprintf("/v1/q1?%sworkload=%s", query, wl),
		layer: "provision",
		call:  func(st *rainshine.Study) (any, error) { return st.SpareProvisioning(wl, hourly) },
	}
}

// readMix is serve_read's fixed mix of 24 requests: 2 quality, Q1 daily
// and hourly for each of W1..W7, and 4 Q2 for each of two ratio lists.
func readMix() []request {
	quality := request{class: "quality", path: "/v1/quality",
		call: func(st *rainshine.Study) (any, error) { return st.Quality() }}
	mix := []request{quality, quality}
	for _, wl := range allWorkloads {
		mix = append(mix, q1Request("q1_daily", "", wl, false))
	}
	for _, wl := range allWorkloads {
		mix = append(mix, q1Request("q1_hourly", "hourly=true&", wl, true))
	}
	for _, ratios := range [][]float64{{1.0, 1.5}, {0.8, 1.2, 2.0}} {
		q := ""
		for i, v := range ratios {
			if i > 0 {
				q += ","
			}
			q += strconv.FormatFloat(v, 'f', -1, 64)
		}
		q2 := request{class: "q2", path: "/v1/q2?ratios=" + q, layer: "skucmp",
			call: func(st *rainshine.Study) (any, error) { return st.VendorComparison(ratios...) }}
		mix = append(mix, q2, q2, q2, q2)
	}
	return mix
}

// readSchedule returns request i of serve_read: the mix repeated in
// blocks of 24, each block shuffled by (seed, block index).
func readSchedule(seed uint64) func(i int) request {
	mix := readMix()
	src := rng.New(seed).Split("serve_read")
	return func(i int) request {
		perm := src.SplitIndex("block", i/len(mix)).Perm(len(mix))
		return mix[perm[i%len(mix)]]
	}
}

const seqHeader = "X-Perfbench-Seq"

// serveTimer times the daemon's ServeHTTP for requests that carry a
// sequence header, so a client can split its round trip into time in
// the handler and time on the wire.
type serveTimer struct {
	h  http.Handler
	mu sync.Mutex
	d  map[string]time.Duration
}

func (t *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq := r.Header.Get(seqHeader)
	if seq == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	t.d[seq] = d
	t.mu.Unlock()
}

// take returns and forgets the handler time of seq. The response is
// flushed only after ServeHTTP returns, so the time is recorded before
// the client can have read the whole body.
func (t *serveTimer) take(seq string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.d[seq]
	delete(t.d, seq)
	return d, ok
}

// daemon is one server under test, reached over loopback HTTP.
type daemon struct {
	timer  *serveTimer
	ts     *httptest.Server
	client *http.Client
}

// startDaemon starts a server with cfg behind a loopback listener. The
// client opens at most clients connections.
func startDaemon(cfg server.Config, clients int) *daemon {
	srv := server.New(cfg)
	timer := &serveTimer{h: srv.Handler(), d: map[string]time.Duration{}}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &daemon{timer: timer, ts: httptest.NewServer(timer), client: &http.Client{Transport: tr}}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// get fetches path and returns the body of a 200 response.
func (d *daemon) get(ctx context.Context, path, seq string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	if seq != "" {
		req.Header.Set(seqHeader, seq)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: reading body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

func (d *daemon) snapshot(ctx context.Context) (server.Snapshot, error) {
	var snap server.Snapshot
	body, err := d.get(ctx, "/metricz", "")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// shadowFunc runs a request's library call outside the daemon and
// returns the time spent in each layer.
type shadowFunc func(req request) (map[string]time.Duration, error)

// loadPhase is what one closed-loop phase measured.
type loadPhase struct {
	samples []Sample
	ops     int
	failed  int
	wall    time.Duration
	// Traced phases only: per-layer library time and call counts, and
	// per-class sums of the traced requests' times.
	layers     map[string]time.Duration
	layerCalls map[string]int
	byClass    map[string]classTrace
}

// classTrace sums, over one class's traced requests, the time in
// ServeHTTP, in the library call and on the wire.
type classTrace struct {
	n                  int
	handler, lib, wire time.Duration
}

func (c classTrace) add(o classTrace) classTrace {
	return classTrace{c.n + o.n, c.handler + o.handler, c.lib + o.lib, c.wire + o.wire}
}

// loadGen drives a daemon in a closed loop: each client sends its next
// request only after the previous answer arrived, following one shared
// schedule.
type loadGen struct {
	d       *daemon
	clients int
	next    func(i int) request
	seq     atomic.Int64

	mu     sync.Mutex
	bodies map[string][]byte // first body served per path
	reqs   map[string]request
	errs   []string
}

func newLoadGen(d *daemon, clients int, next func(i int) request) *loadGen {
	return &loadGen{d: d, clients: clients, next: next, bodies: map[string][]byte{}, reqs: map[string]request{}}
}

// keep records a served body; a path served twice must answer the same
// bytes both times.
func (g *loadGen) keep(req request, body []byte) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if first, ok := g.bodies[req.path]; ok {
		return bytes.Equal(first, body)
	}
	g.bodies[req.path] = body
	g.reqs[req.path] = req
	return true
}

func (g *loadGen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// run drives the daemon for seconds; shadow, when non-nil, traces every
// request.
func (g *loadGen) run(ctx context.Context, seconds float64, shadow shadowFunc) loadPhase {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	parts := make([]loadPhase, g.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(p *loadPhase) {
			defer wg.Done()
			p.layers, p.layerCalls, p.byClass = map[string]time.Duration{}, map[string]int{}, map[string]classTrace{}
			for ctx.Err() == nil && time.Now().Before(deadline) {
				g.one(ctx, p, shadow)
			}
		}(&parts[c])
	}
	wg.Wait()
	out := loadPhase{wall: time.Since(t0), layers: map[string]time.Duration{}, layerCalls: map[string]int{},
		byClass: map[string]classTrace{}}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.ops += p.ops
		out.failed += p.failed
		for l, d := range p.layers {
			out.layers[l] += d
			out.layerCalls[l] += p.layerCalls[l]
		}
		for c, t := range p.byClass {
			out.byClass[c] = out.byClass[c].add(t)
		}
	}
	return out
}

func (g *loadGen) one(ctx context.Context, p *loadPhase, shadow shadowFunc) {
	i := int(g.seq.Add(1) - 1)
	req := g.next(i)
	p.ops++
	if shadow == nil {
		g.fetch(ctx, p, req, "")
		return
	}
	// The library call runs before the request on even indices and after
	// it on odd ones, so that whatever the first of the two leaves warm
	// favours neither.
	var layers map[string]time.Duration
	var err error
	if i%2 == 0 {
		layers, err = shadow(req)
	}
	seq := strconv.Itoa(i)
	rtt, ok := g.fetch(ctx, p, req, seq)
	if i%2 == 1 {
		layers, err = shadow(req)
	}
	handler, timed := g.d.timer.take(seq)
	if !ok || !timed {
		return
	}
	if err != nil {
		p.failed++
		g.fail("library call for %s: %v", req.path, err)
		return
	}
	lib := time.Duration(0)
	for l, d := range layers {
		lib += d
		p.layers[l] += d
		p.layerCalls[l]++
	}
	p.byClass[req.class] = p.byClass[req.class].add(classTrace{1, handler, lib, rtt - handler})
}

// fetch sends one request, records its latency, and checks that a path
// served twice answers the same bytes.
func (g *loadGen) fetch(ctx context.Context, p *loadPhase, req request, seq string) (time.Duration, bool) {
	t0 := time.Now()
	body, err := g.d.get(ctx, req.path, seq)
	rtt := time.Since(t0)
	if err != nil {
		p.failed++
		g.fail("%v", err)
		return rtt, false
	}
	p.samples = append(p.samples, Sample{Class: req.class, MS: ms(rtt)})
	if !g.keep(req, body) {
		p.failed++
		g.fail("%s served two different bodies", req.path)
	}
	return rtt, true
}

// verify compares every distinct served body with json.Marshal of the
// library answer, computed by expect on one goroutine per client.
func (g *loadGen) verify(ctx context.Context, r *report, expect func(request) (any, error)) {
	paths := make([]string, 0, len(g.bodies))
	for p := range g.bodies {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < g.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= len(paths) {
					return
				}
				path := paths[k]
				err := matches(g.bodies[path], g.reqs[path], expect)
				if err != nil {
					mu.Lock()
					r.checkFailed("%s: %v", path, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	r.logf("checks: %d distinct bodies compared with json.Marshal of the library answer", len(paths))
	for _, e := range g.errs {
		r.logf("failed op: %s", e)
	}
}

func matches(body []byte, req request, expect func(request) (any, error)) error {
	v, err := expect(req)
	if err != nil {
		return fmt.Errorf("library answer: %w", err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding library answer: %w", err)
	}
	if !bytes.Equal(append(want, '\n'), body) {
		return fmt.Errorf("served body differs from the library answer")
	}
	return nil
}

// timeLayer runs fn and adds its duration to layers[layer].
func timeLayer(layers map[string]time.Duration, layer string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	layers[layer] += time.Since(t0)
	return err
}

// tracedLoad runs an untraced and a traced half on g and sets the
// metrics both serving workloads share. It returns the untraced half.
func tracedLoad(ctx context.Context, o options, r *report, g *loadGen, shadow shadowFunc) (loadPhase, error) {
	before, err := g.d.snapshot(ctx)
	if err != nil {
		return loadPhase{}, err
	}
	plain := g.run(ctx, o.seconds/2, nil)
	traced := g.run(ctx, o.seconds/2, shadow)
	after, err := g.d.snapshot(ctx)
	if err != nil {
		return loadPhase{}, err
	}
	r.ops(plain.ops+traced.ops, plain.failed+traced.failed)
	var all classTrace
	classes := make([]string, 0, len(traced.byClass))
	for c, t := range traced.byClass {
		all = all.add(t)
		classes = append(classes, c)
	}
	if plain.ops == 0 || all.n == 0 {
		return loadPhase{}, fmt.Errorf("too few requests for a traced run")
	}
	perOp := func(p loadPhase) float64 { return ms(p.wall) * float64(g.clients) / float64(p.ops) }
	r.set("trace.overhead_ms", perOp(traced)-perOp(plain))
	n := float64(all.n)
	r.set("server.self_ms", ms(all.handler-all.lib)/n)
	r.set("http.rtt_ms", ms(all.wire)/n)
	for l, d := range traced.layers {
		if l != "" {
			r.set(l+".busy_ms", ms(d)/float64(traced.layerCalls[l]))
		}
	}
	r.set("registry.hits", float64(after.Cache.Hits-before.Cache.Hits))
	r.set("registry.misses", float64(after.Cache.Misses-before.Cache.Misses))
	r.set("resilience.shed", float64(after.Resilience.ShedTotal()-before.Resilience.ShedTotal()))
	r.logf("trace: %d of %d traced requests split into handler self, wire and library time", all.n, traced.ops)
	sort.Strings(classes)
	for _, c := range classes {
		t := traced.byClass[c]
		k := float64(t.n)
		r.logf("trace class %-9s n=%d ServeHTTP_ms=%.3f library_ms=%.3f self_ms=%.3f",
			c, t.n, ms(t.handler)/k, ms(t.lib)/k, ms(t.handler-t.lib)/k)
	}
	return plain, nil
}

func loadLine(r *report, clients int, what string) {
	r.logf("load: closed loop, %d clients (nproc=%d), one connection each, loopback HTTP through Server.Handler(); %s",
		clients, runtime.NumCPU(), what)
}

// runServeRead serves dashboard reads from the daemon's default study,
// paper-scale and warm. Set-up builds it the way `serve -warmup` does.
func runServeRead(ctx context.Context, o options, r *report) error {
	clients := runtime.NumCPU()
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	setups, err := timeSetups(5, func() error {
		if d != nil {
			d.close()
		}
		d = startDaemon(server.Config{Warmup: true}, clients)
		_, err := d.get(ctx, "/v1/quality", "")
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	loadLine(r, clients, "seeded shuffle of 24 requests: 2 quality, 7 q1 daily, 7 q1 hourly, 8 q2")
	g := newLoadGen(d, clients, readSchedule(o.seed))

	// The library answers come from a second study built the batch way,
	// and brought to the daemon's state: warm, with its quality report
	// memoized by the set-up request.
	var lib *rainshine.Study
	buildLib := func() error {
		var err error
		if lib, err = rainshine.NewStudyContext(ctx); err != nil {
			return err
		}
		if err := lib.Warmup(ctx); err != nil {
			return err
		}
		_, err = lib.Quality()
		return err
	}
	expect := func(req request) (any, error) { return req.call(lib) }

	var plain loadPhase
	var rss float64
	if o.trace {
		if err := buildLib(); err != nil {
			return fmt.Errorf("library study: %w", err)
		}
		shadow := func(req request) (map[string]time.Duration, error) {
			layers := map[string]time.Duration{}
			err := timeLayer(layers, req.layer, func() error { _, err := req.call(lib); return err })
			return layers, err
		}
		if plain, err = tracedLoad(ctx, o, r, g, shadow); err != nil {
			return err
		}
		sum, err := summarize(plain.samples)
		if err != nil {
			return err
		}
		for _, b := range sum.Bands {
			r.set("class."+b.Class+".count", float64(b.Count))
			r.set("class."+b.Class+".p50_ms", b.P50)
			r.logf("class %-9s count=%d p50_ms=%.4f (untraced half)", b.Class, b.Count, b.P50)
		}
	} else {
		plain = g.run(ctx, o.seconds, nil)
		r.ops(plain.ops, plain.failed)
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
		if err := buildLib(); err != nil {
			return fmt.Errorf("library study: %w", err)
		}
	}
	g.verify(ctx, r, expect)
	if o.trace {
		return nil
	}
	return r.endToEndMetrics(setups, plain.samples, float64(len(plain.samples)), "requests/s", plain.wall, rss)
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rainshine"
	"rainshine/internal/leakcheck"
	"rainshine/internal/metrics"
	"rainshine/internal/provision"
)

func TestStudyConfigKeyCanonicalization(t *testing.T) {
	zero := StudyConfig{}
	explicit := StudyConfig{Seed: 42, Days: 930, Racks: [2]int{331, 290}}
	if zero.Key() != explicit.Key() {
		t.Errorf("default and explicit-default keys differ:\n%s\n%s", zero.Key(), explicit.Key())
	}
	other := StudyConfig{Seed: 43}
	if zero.Key() == other.Key() {
		t.Error("distinct seeds share a key")
	}
	dirty := StudyConfig{Faults: true}
	if zero.Key() == dirty.Key() {
		t.Error("dirty and clean configs share a key")
	}
}

// newTestRegistry builds a registry with the pre-resilience defaults
// (no breaker, 10m build timeout) so the cache-semantics tests stay
// focused on singleflight and LRU behavior.
func newTestRegistry(capacity int, m *Metrics, build buildFunc) *registry {
	return newRegistry(registryOptions{capacity: capacity, metrics: m, build: build})
}

// study fetches ignoring the degradation marker (none of the
// cache-semantics tests degrade).
func (r *registry) study(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
	st, deg, err := r.Study(ctx, cfg)
	if deg != nil {
		panic("unexpected degraded study in cache-semantics test")
	}
	return st, err
}

// fakeBuild returns a build func that counts invocations and returns a
// distinct (nil-backed, never dereferenced) study per call site.
func fakeBuild(calls *atomic.Int64, delay time.Duration) buildFunc {
	return func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		calls.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &rainshine.Study{}, nil
	}
}

func TestRegistrySingleflight(t *testing.T) {
	var calls atomic.Int64
	m := NewMetrics()
	reg := newTestRegistry(4, m, fakeBuild(&calls, 20*time.Millisecond))

	const clients = 64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.study(context.Background(), StudyConfig{Seed: 7}); err != nil {
				t.Errorf("Study: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	snap := m.Snapshot(4)
	if snap.Builds.Started != 1 || snap.Builds.Completed != 1 {
		t.Errorf("builds = %+v, want 1 started/completed", snap.Builds)
	}
	// Every lookup either hit the cache (arrived after the build) or
	// was a miss; all misses but the build-starter piggybacked.
	if snap.Cache.Hits+snap.Cache.Misses != clients {
		t.Errorf("hits+misses = %d+%d, want %d", snap.Cache.Hits, snap.Cache.Misses, clients)
	}
	if snap.Cache.DedupJoins != snap.Cache.Misses-1 {
		t.Errorf("dedup joins = %d, want misses-1 = %d", snap.Cache.DedupJoins, snap.Cache.Misses-1)
	}

	// A follow-up lookup is a pure cache hit.
	hitsBefore := snap.Cache.Hits
	if _, err := reg.study(context.Background(), StudyConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(4).Cache.Hits; got != hitsBefore+1 {
		t.Errorf("hits = %d, want %d", got, hitsBefore+1)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	var calls atomic.Int64
	m := NewMetrics()
	reg := newTestRegistry(2, m, fakeBuild(&calls, 0))

	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := reg.study(context.Background(), StudyConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Len() != 2 {
		t.Errorf("cache len = %d, want 2", reg.Len())
	}
	if got := m.Snapshot(2).Cache.Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Seed 1 was evicted (LRU tail): asking again rebuilds.
	before := calls.Load()
	if _, err := reg.study(context.Background(), StudyConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Error("evicted study did not rebuild")
	}
	// Seed 3 is still resident: no rebuild.
	before = calls.Load()
	if _, err := reg.study(context.Background(), StudyConfig{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Error("resident study rebuilt")
	}
}

func TestRegistryTouchKeepsHotEntry(t *testing.T) {
	var calls atomic.Int64
	reg := newTestRegistry(2, NewMetrics(), fakeBuild(&calls, 0))
	bg := context.Background()
	reg.study(bg, StudyConfig{Seed: 1})
	reg.study(bg, StudyConfig{Seed: 2})
	reg.study(bg, StudyConfig{Seed: 1}) // touch: 1 becomes MRU
	reg.study(bg, StudyConfig{Seed: 3}) // evicts 2, not 1
	before := calls.Load()
	reg.study(bg, StudyConfig{Seed: 1})
	if calls.Load() != before {
		t.Error("touched entry was evicted")
	}
}

func TestRegistryAbandonedBuildCancels(t *testing.T) {
	canceled := make(chan struct{})
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}
	m := NewMetrics()
	reg := newTestRegistry(4, m, build)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := reg.study(ctx, StudyConfig{Seed: 9}); err == nil {
		t.Fatal("abandoned Study returned no error")
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("build never saw cancellation after its last waiter left")
	}
	// The canceled build must not be cached, and must be counted.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m.Snapshot(4).Builds.Canceled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("builds = %+v, want 1 canceled", m.Snapshot(4).Builds)
		}
		time.Sleep(time.Millisecond)
	}
	if reg.Len() != 0 {
		t.Error("canceled build was cached")
	}
}

func TestRegistryBuildErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		calls.Add(1)
		return nil, context.DeadlineExceeded
	}
	m := NewMetrics()
	reg := newTestRegistry(4, m, build)
	for i := 0; i < 2; i++ {
		if _, err := reg.study(context.Background(), StudyConfig{Seed: 5}); err == nil {
			t.Fatal("build error not surfaced")
		}
	}
	if calls.Load() != 2 {
		t.Errorf("failed build was cached: %d calls, want 2", calls.Load())
	}
	if reg.Len() != 0 {
		t.Error("failed build entered the LRU")
	}
}

func TestRegistryBuildPanicBecomesError(t *testing.T) {
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		panic("kaboom")
	}
	reg := newTestRegistry(4, NewMetrics(), build)
	_, err := reg.study(context.Background(), StudyConfig{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want build panic surfaced", err)
	}
}

func TestParseStudyConfig(t *testing.T) {
	good := url.Values{"seed": {"7"}, "days": {"120"}, "racks": {"12,10"}, "faults": {"true"}}
	cfg, err := parseStudyConfig(good)
	if err != nil {
		t.Fatal(err)
	}
	want := StudyConfig{Seed: 7, Days: 120, Racks: [2]int{12, 10}, Faults: true}
	if cfg != want {
		t.Errorf("cfg = %+v, want %+v", cfg, want)
	}
	if d := mustParse(t, url.Values{}); d != (StudyConfig{Seed: 42, Days: 930, Racks: [2]int{331, 290}}) {
		t.Errorf("defaults = %+v", d)
	}
	bad := []url.Values{
		{"seed": {"-1"}},
		{"seed": {"x"}},
		{"days": {"0"}},
		{"days": {"99999"}},
		{"racks": {"12"}},
		{"racks": {"0,10"}},   // the validation satellite: zero rejected
		{"racks": {"12,-10"}}, // ... and negative
		{"racks": {"a,b"}},
		{"faults": {"maybe"}},
		{"racks": {"1000000,1000000"}}, // over the rack-day budget
		{"racks": {"700,2"}, "days": {"3660"}},
	}
	for _, q := range bad {
		if _, err := parseStudyConfig(q); err == nil {
			t.Errorf("parseStudyConfig(%v) should error", q)
		}
	}
	// The largest window at the default fleet is exactly the budget.
	if d := mustParse(t, url.Values{"days": {"3660"}}); d.Days != 3660 {
		t.Errorf("days=3660 parsed as %+v", d)
	}
}

// TestOversizedStudyIs400: a study over the rack-day budget gets a
// typed 400 naming the limit, and no build starts.
func TestOversizedStudyIs400(t *testing.T) {
	var calls atomic.Int64
	ts := testServer(t, Config{build: fakeBuild(&calls, 0), Logf: t.Logf})
	code, body := getJSON(t, ts.URL+"/v1/q1?racks=1000000,1000000")
	if code != http.StatusBadRequest || body["reason"] != "study_too_large" {
		t.Errorf("status %d body %v, want 400 with reason study_too_large", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, strconv.Itoa(rainshine.MaxRackDays)) {
		t.Errorf("error %q does not name the limit %d", msg, rainshine.MaxRackDays)
	}
	if calls.Load() != 0 {
		t.Errorf("oversized study triggered %d builds", calls.Load())
	}
}

func mustParse(t *testing.T, q url.Values) StudyConfig {
	t.Helper()
	cfg, err := parseStudyConfig(q)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseQ1Params(t *testing.T) {
	wl, hourly, err := parseQ1Params(url.Values{"workload": {"w3"}, "hourly": {"true"}})
	if err != nil || wl != rainshine.W3 || !hourly {
		t.Errorf("got %v %v %v", wl, hourly, err)
	}
	if wl, hourly, err = parseQ1Params(url.Values{}); err != nil || wl != rainshine.W6 || hourly {
		t.Errorf("defaults: %v %v %v", wl, hourly, err)
	}
	for _, q := range []url.Values{{"workload": {"W9"}}, {"hourly": {"x"}}} {
		if _, _, err := parseQ1Params(q); err == nil {
			t.Errorf("parseQ1Params(%v) should error", q)
		}
	}
}

func TestParseRatios(t *testing.T) {
	rs, err := parseRatios(url.Values{"ratios": {"1.0, 1.5,2"}})
	if err != nil || len(rs) != 3 || rs[2] != 2 {
		t.Errorf("got %v %v", rs, err)
	}
	if rs, err = parseRatios(url.Values{}); err != nil || rs != nil {
		t.Errorf("default: %v %v", rs, err)
	}
	for _, v := range []string{"0", "-1", "x", "1.0,,2", "inf", "+Inf", "NaN", "1," + tooManyRatios} {
		if _, err := parseRatios(url.Values{"ratios": {v}}); err == nil {
			t.Errorf("parseRatios(%q) should error", v)
		}
	}
	if rs, err := parseRatios(url.Values{"ratios": {tooManyRatios[2:]}}); err != nil || len(rs) != maxRatios {
		t.Errorf("%d ratios: got %d, %v", maxRatios, len(rs), err)
	}
}

// tooManyRatios is a ratio list one longer than maxRatios.
var tooManyRatios = strings.Repeat("1,", maxRatios) + "1"

func TestMetricsLatencyQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Observe("/v1/q3", time.Duration(i)*time.Millisecond, false)
	}
	es := m.Snapshot(1).Requests["/v1/q3"]
	if es.Count != 100 || es.Errors != 0 {
		t.Errorf("count/errors = %d/%d", es.Count, es.Errors)
	}
	lat := es.LatencyMS
	if lat.P50 < 45 || lat.P50 > 55 || lat.P99 < 95 || lat.Max != 100 {
		t.Errorf("latency quantiles off: %+v", lat)
	}
}

// discard spins up a test server with the given build func.
func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, m
}

func TestHealthzAndMetricz(t *testing.T) {
	var calls atomic.Int64
	ts := testServer(t, Config{CacheSize: 2, build: fakeBuild(&calls, 0), Logf: t.Logf})

	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, body)
	}
	code, body = getJSON(t, ts.URL+"/metricz")
	if code != http.StatusOK {
		t.Errorf("metricz status = %d", code)
	}
	for _, k := range []string{"uptime_seconds", "requests", "cache", "builds"} {
		if _, ok := body[k]; !ok {
			t.Errorf("metricz missing %q: %v", k, body)
		}
	}
}

func TestBadParamsAre400(t *testing.T) {
	var calls atomic.Int64
	ts := testServer(t, Config{build: fakeBuild(&calls, 0), Logf: t.Logf})
	urls := []string{
		"/v1/q1?racks=0,10",
		"/v1/q1?workload=W9",
		"/v1/q2?ratios=-1",
		"/v1/q2?ratios=inf",
		"/v1/q2?ratios=NaN",
		"/v1/q2?ratios=" + tooManyRatios,
		"/v1/q3?days=bogus",
		"/v1/predict?seed=-3",
		"/v1/quality?faults=perhaps",
	}
	for _, u := range urls {
		code, body := getJSON(t, ts.URL+u)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d %v, want 400", u, code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", u)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("bad params triggered %d study builds", calls.Load())
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	var calls atomic.Int64
	ts := testServer(t, Config{build: fakeBuild(&calls, 0), Logf: t.Logf})
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/q3", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

// TestMetricsKeyedByRoute checks that /metricz counts requests per
// matched route: known routes keep their paths as keys, whatever their
// query or status, and a thousand distinct unknown paths plus a wrong
// method add one key between them.
func TestMetricsKeyedByRoute(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{build: fakeBuild(&calls, 0), Logf: t.Logf})
	serve := func(method, target string) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		return rec.Code
	}
	if code := serve(http.MethodGet, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := serve(http.MethodGet, "/v1/q3?days=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad q3 = %d, want 400", code)
	}
	before := len(srv.Metrics().Snapshot(1).Requests)
	for i := 0; i < 1000; i++ {
		if code := serve(http.MethodGet, fmt.Sprintf("/scan/%d?x=%d", i, i)); code != http.StatusNotFound {
			t.Fatalf("unknown path %d = %d, want 404", i, code)
		}
	}
	if code := serve(http.MethodPost, "/v1/q3"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST q3 = %d, want 405", code)
	}
	snap := srv.Metrics().Snapshot(1)
	if added := len(snap.Requests) - before; added > 1 {
		t.Errorf("unmatched requests added %d metrics keys, want at most 1", added)
	}
	if e := snap.Requests[unmatchedRoute]; e.Count != 1001 || e.Errors != 1001 {
		t.Errorf("%s = %+v, want 1001 requests, all errors", unmatchedRoute, e)
	}
	for route, want := range map[string]int64{"/healthz": 1, "/v1/q3": 1} {
		if got := snap.Requests[route].Count; got != want {
			t.Errorf("%s count = %d, want %d", route, got, want)
		}
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	// A nil study makes every evaluation handler dereference nil; the
	// recovery middleware must convert that into a JSON 500, not a
	// dropped connection.
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		return nil, nil
	}
	ts := testServer(t, Config{build: build, Logf: t.Logf})
	code, body := getJSON(t, ts.URL+"/v1/q3")
	if code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("error = %v, want panic mention", body["error"])
	}
}

func TestRequestTimeout(t *testing.T) {
	build := func(ctx context.Context, cfg StudyConfig) (*rainshine.Study, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := testServer(t, Config{Timeout: 30 * time.Millisecond, build: build, Logf: t.Logf})
	code, body := getJSON(t, ts.URL+"/v1/q3")
	if code != http.StatusGatewayTimeout {
		t.Errorf("status = %d %v, want 504", code, body)
	}
}

// TestMemoWithoutWarmup checks that a daemon started without Warmup
// still computes each study's shared sub-analyses once: repeated q1
// hourly and q3 reads return the same bytes as a one-shot study, the
// study the registry published reuses its μ distributions and Q3 fit,
// and a q3 read canceled during the fit leaves nothing behind that the
// next read could trip over.
func TestMemoWithoutWarmup(t *testing.T) {
	leakcheck.Check(t)
	const query = "seed=7&days=365&racks=60,50"
	srv := New(Config{Logf: t.Logf})
	serve := func(ctx context.Context, path string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		return rec.Code, rec.Body.String()
	}
	bg := context.Background()
	if code, body := serve(bg, "/v1/quality?"+query); code != http.StatusOK {
		t.Fatalf("building the study: %d %s", code, body)
	}

	oneShot, err := rainshine.NewStudy(rainshine.WithSeed(7), rainshine.WithDays(365), rainshine.WithRacks(60, 50))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(rep any, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf) + "\n"
	}
	// Time the Q3 fit alone on the one-shot study: its rack-day frame
	// and quality audit are built first.
	if _, err := oneShot.Figures().RackDays(); err != nil {
		t.Fatal(err)
	}
	if _, err := oneShot.Quality(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	q3Want := encode(oneShot.ClimateGuidance())
	fit := time.Since(start)

	// A q3 read whose request ends while the fit runs: the fit stops
	// with that request's ctx error, which must not be memoized. The
	// published study's frame is built first, so the read goes straight
	// into the same fit, and the cancel lands a quarter of the way in
	// however fast this machine fits.
	st, err := srv.reg.study(bg, StudyConfig{Seed: 7, Days: 365, Racks: [2]int{60, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Figures().RackDays(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	stop := time.AfterFunc(fit/4, cancel)
	defer stop.Stop()
	if code, body := serve(ctx, "/v1/q3?"+query); code != 499 {
		t.Fatalf("q3 canceled %v into a %v fit = %d %s, want 499", fit/4, fit, code, body)
	}

	for _, c := range []struct{ path, want string }{
		{"/v1/q1?workload=W1&hourly=true&" + query, encode(oneShot.SpareProvisioning(rainshine.W1, true))},
		{"/v1/q3?" + query, q3Want},
	} {
		for i := 0; i < 2; i++ {
			if code, body := serve(bg, c.path); code != http.StatusOK || body != c.want {
				t.Errorf("%s read %d = %d, body differs from the one-shot study:\n got %.200s\nwant %.200s",
					c.path, i, code, body, c.want)
			}
		}
	}

	a, err := st.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree != b.Tree {
		t.Error("published study refit Q3 instead of reading its memo")
	}
	mu1, err := st.Figures().Mu(provision.AllComponents, metrics.Hourly)
	if err != nil {
		t.Fatal(err)
	}
	mu2, err := st.Figures().Mu(provision.AllComponents, metrics.Hourly)
	if err != nil {
		t.Fatal(err)
	}
	if &mu1[0] != &mu2[0] {
		t.Error("published study recomputed hourly μ instead of reading its memo")
	}
}

// TestLongWindowQ2 answers a Q2 over a 1,200-day window: any window the
// query parser accepts (up to 3,660 days) must build its rack-day frame,
// whose year column once stopped at the third calendar year.
func TestLongWindowQ2(t *testing.T) {
	leakcheck.Check(t)
	srv := New(Config{Logf: t.Logf})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/q2?days=1200&racks=30,30", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/q2?days=1200&racks=30,30 = %d %s", rec.Code, rec.Body.String())
	}
}

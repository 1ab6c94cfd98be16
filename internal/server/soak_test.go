package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"rainshine/internal/leakcheck"
	"strings"
	"sync"
	"testing"
	"time"

	"rainshine/internal/faults"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
)

// soakConfigs are four small (fast-building) study configs the chaos
// soak mixes — the load test's fleet scale, which is large enough for
// every analysis (vendor comparison needs stratified variety). Four
// configs against a two-slot primary cache guarantee eviction churn,
// and therefore rebuild attempts for chaos to fail.
var soakConfigs = []string{
	"seed=42&days=150&racks=30,26",
	"seed=43&days=150&racks=30,26",
	"seed=44&days=150&racks=30,26",
	"seed=45&days=150&racks=30,26",
}

// Soak SLOs, asserted here and recorded in BENCH_serve.json's "soak"
// section so `make soak` fails on regression. Overall availability is
// dominated by the deliberately tight q3 class shedding its overload;
// the cheap cached reads must stay essentially always-on — that split
// is the "shed expensive grid work before cheap reads" contract.
const (
	soakAvailabilityMin      = 0.70   // all requests answered 200
	soakCheapAvailabilityMin = 0.99   // non-q3 requests answered 200
	soakCheapP99MaxMS        = 2000.0 // /v1/quality p99 under overload
	soakQ3P99MaxMS           = 5000.0 // /v1/q3 p99 under overload
)

// scriptStep is one recorded response of the deterministic degradation
// script: everything a client can observe, for byte-comparison across
// independent server instances.
type scriptStep struct {
	path       string
	status     int
	degraded   string // X-Rainshine-Degraded header
	retryAfter string
	body       string
}

// runDegradationScript drives a fixed request sequence against a fresh
// chaos-mode server: two studies build cleanly, then every rebuild is
// an injected failure, the breaker trips, and the last-good copies
// serve. Responses are returned in order for byte-comparison.
func runDegradationScript(t *testing.T) []scriptStep {
	t.Helper()
	s := New(Config{
		CacheSize: 1,
		Timeout:   time.Minute,
		Logf:      func(string, ...any) {},
		Resilience: ResilienceConfig{
			BreakerThreshold: 3,
			BreakerCooldown:  time.Hour, // never probes within the script
		},
		// BuildFailAfter is the structural chaos knob: attempt 1 per
		// study succeeds (a last-good copy exists), every rebuild fails.
		Chaos: &faults.ChaosConfig{Seed: 7, BuildFailAfter: 1},
	})
	paths := []string{
		"/v1/quality?" + soakConfigs[0],                // fresh build
		"/v1/quality?" + soakConfigs[1],                // fresh build, evicts [0]
		"/v1/quality?" + soakConfigs[0],                // rebuild fails -> degraded (1)
		"/v1/q1?" + soakConfigs[0] + "&workload=W6",    // degraded (2)
		"/v1/q2?" + soakConfigs[0] + "&ratios=1.0,2.0", // degraded (3) -> breaker opens
		"/v1/quality?" + soakConfigs[0],                // degraded, reason breaker_open
		"/v1/quality?" + soakConfigs[2],                // no last-good copy -> 503 shed
		"/v1/quality?" + soakConfigs[1],                // still cached -> fresh
	}
	var steps []scriptStep
	for _, path := range paths {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		steps = append(steps, scriptStep{
			path:       path,
			status:     rr.Code,
			degraded:   rr.Header().Get("X-Rainshine-Degraded"),
			retryAfter: rr.Header().Get("Retry-After"),
			body:       rr.Body.String(),
		})
	}
	// The script's side effects are themselves deterministic.
	snap := s.Metrics().Snapshot(1)
	if snap.Builds.Started != 5 || snap.Builds.Completed != 2 || snap.Builds.Failed != 3 {
		t.Errorf("builds = %+v, want 5 started / 2 completed / 3 failed", snap.Builds)
	}
	res := snap.Resilience
	if res.DegradedServed != 4 || res.ShedBreakerOpen != 1 ||
		res.ChaosBuildFaults != 3 || res.BreakerOpens != 1 || res.BreakerState != "open" {
		t.Errorf("resilience = %+v, want 4 degraded / 1 breaker shed / 3 chaos faults / breaker open", res)
	}
	return steps
}

// TestChaosSoakDeterministicDegradation asserts the graceful-degradation
// contract: for a fixed chaos seed, two independent servers walked
// through the same request script produce byte-identical responses —
// including every degraded (last-good) body — and the degraded envelope
// wraps exactly the bytes a healthy server serves for the same query.
func TestChaosSoakDeterministicDegradation(t *testing.T) {
	leakcheck.Check(t)
	first := runDegradationScript(t)
	second := runDegradationScript(t)

	wantStatus := []int{200, 200, 200, 200, 200, 200, 503, 200}
	wantDegraded := []string{"", "", "build_failure", "build_failure", "build_failure", "breaker_open", "", ""}
	for i, st := range first {
		if st.status != wantStatus[i] {
			t.Errorf("step %d (%s): status = %d, want %d: %s", i, st.path, st.status, wantStatus[i], st.body)
		}
		if st.degraded != wantDegraded[i] {
			t.Errorf("step %d (%s): degraded = %q, want %q", i, st.path, st.degraded, wantDegraded[i])
		}
		if st != second[i] {
			t.Errorf("step %d (%s): responses differ across identically-seeded servers\nfirst:  %+v\nsecond: %+v",
				i, st.path, st, second[i])
		}
	}
	// The breaker shed carries machine-readable retry advice.
	if shed := first[6]; shed.retryAfter != "3600" {
		t.Errorf("breaker shed Retry-After = %q, want 3600 (the 1h cooldown)", shed.retryAfter)
	}

	// A degraded body's data field is byte-for-byte the healthy answer:
	// degradation changes the envelope, never the analysis.
	healthy := New(Config{CacheSize: 1, Timeout: time.Minute, Logf: func(string, ...any) {}})
	rr := httptest.NewRecorder()
	healthy.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/quality?"+soakConfigs[0], nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthy server: %d: %s", rr.Code, rr.Body.String())
	}
	var env struct {
		Degraded bool            `json:"degraded"`
		Reason   string          `json:"reason"`
		Detail   string          `json:"detail"`
		Data     json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(first[2].body), &env); err != nil {
		t.Fatal(err)
	}
	if !env.Degraded || env.Reason != "build_failure" || env.Detail != faults.ErrInjectedBuild.Error() {
		t.Errorf("envelope = %+v, want degraded build_failure quoting the chaos sentinel", env)
	}
	if want := strings.TrimSuffix(rr.Body.String(), "\n"); string(env.Data) != want {
		t.Errorf("degraded data differs from the healthy answer\ndegraded: %.120s\nhealthy:  %.120s", env.Data, want)
	}
}

// TestChaosSoakStream wires streaming into the chaos soak: the follower
// tails a log whose delivery order was corrupted by the seeded stream
// chaos plan (duplicates, one-day reordering, arrivals past the
// watermark) while the log grows underneath it and concurrent clients
// long-poll /v1/stream. The contract under chaos: every response is a
// clean 200 with a monotonic watermark, delivery defects land as
// quarantine counters rather than errors, and those counters are a
// deterministic function of the chaos seed — exactly the counts an
// offline replay of the same corrupted record sequence produces.
func TestChaosSoakStream(t *testing.T) {
	leakcheck.Check(t)
	study := StudyConfig{Seed: 12, Days: 60, Racks: [2]int{4, 3}}
	res, err := simulate.Run(study.simConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := stream.Records(res)
	if err != nil {
		t.Fatal(err)
	}
	ch := faults.NewChaos(faults.ChaosConfig{
		Seed:                9,
		StreamReorderRate:   0.10,
		StreamDuplicateRate: 0.08,
		StreamLateRate:      0.04,
	})
	corrupted := stream.CorruptRecords(recs, ch)

	// Expected counters come from an offline replay of the identical
	// corrupted sequence — the live follower must land on the same ones.
	var buf bytes.Buffer
	if err := stream.WriteLog(&buf, corrupted); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rd, err := stream.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.Replay(context.Background(), rd, stream.Config{Sim: study.simConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := want.Stats()
	if wantStats.Late == 0 || wantStats.Duplicates == 0 {
		t.Fatalf("chaos plan injected no stream defects: %+v", wantStats)
	}

	// The log grows under the follower: a third to start, the rest
	// appended while clients are parked on long-polls. Cut points are
	// frame boundaries by construction (whole records re-encoded).
	var third bytes.Buffer
	if err := stream.WriteLog(&third, corrupted[:len(corrupted)/3]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chaos.log")
	if err := os.WriteFile(path, third.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1,
		Logf:    func(string, ...any) {},
		build:   failingBuild(),
		Follow: &FollowConfig{
			Path:         path,
			Study:        study,
			PollInterval: 2 * time.Millisecond,
			LongPoll:     5 * time.Second,
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Follow(ctx) }()
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Errorf("appending log: %v", err)
		}
	}()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			watermark := -1
			deadline := time.Now().Add(30 * time.Second)
			for {
				url := ts.URL + "/v1/stream"
				if watermark >= 0 {
					url = fmt.Sprintf("%s?watermark=%d", url, watermark)
				}
				body, resp := getStreamStatus(t, url)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/v1/stream = %d, want 200 under stream chaos", resp.StatusCode)
					return
				}
				if body.Error != "" {
					t.Errorf("follower surfaced an error under stream chaos: %s", body.Error)
					return
				}
				if body.Watermark < watermark {
					t.Errorf("watermark went backwards: %d -> %d", watermark, body.Watermark)
					return
				}
				watermark = body.Watermark
				if body.Sealed {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("stream never sealed (watermark %d)", watermark)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}

	snap := fetchSnapshot(t, ts.URL)
	if snap.Stream == nil {
		t.Fatal("/metricz has no stream section")
	}
	if !snap.Stream.Sealed || snap.Stream.Watermark != study.Days || snap.Stream.Lag != 0 {
		t.Fatalf("stream counters = %+v, want sealed at %d with zero lag", snap.Stream, study.Days)
	}
	if snap.Stream.Late != wantStats.Late || snap.Stream.Duplicates != wantStats.Duplicates {
		t.Fatalf("quarantines not deterministic: live %d late / %d dup, offline replay %d late / %d dup",
			snap.Stream.Late, snap.Stream.Duplicates, wantStats.Late, wantStats.Duplicates)
	}
	if snap.Stream.RecordsIn != wantStats.RecordsIn {
		t.Fatalf("records in = %d, offline replay saw %d", snap.Stream.RecordsIn, wantStats.RecordsIn)
	}
	if snap.Stream.Refits == 0 || snap.Stream.Refits != wantStats.Refits {
		t.Fatalf("live refits = %d, offline replay ran %d (want equal and nonzero)", snap.Stream.Refits, wantStats.Refits)
	}
	if snap.Stream.RefitOutcomes != wantStats.RefitOutcomes {
		t.Fatalf("live refit outcomes %+v, offline replay %+v", snap.Stream.RefitOutcomes, wantStats.RefitOutcomes)
	}
}

// TestChaosSoakOverload is the concurrent chaos soak: hundreds of
// clients, every chaos class on, a deliberately tight q3 admission
// class, and a cache smaller than the working set. It asserts the
// daemon's overload contract — every response is a typed 200/429/503,
// degraded bodies are byte-stable per (path, reason), availability and
// latency SLOs hold — and records the run in BENCH_serve.json.
func TestChaosSoakOverload(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("soak is not a -short test")
	}
	const (
		clients           = 200
		requestsPerClient = 5
		q3Burst           = 64
	)
	srv := New(Config{
		CacheSize: 2, // < len(soakConfigs): guarantees rebuild attempts
		Timeout:   30 * time.Second,
		Warmup:    true,
		Logf:      func(string, ...any) {},
		Resilience: ResilienceConfig{
			MaxConcurrent: 32,
			MaxQueue:      512, // cheap endpoints queue rather than shed
			Q3Concurrent:  2,
			Q3Queue:       2, // the grid endpoint sheds under the burst
			// The breaker trips and recovers repeatedly as injected
			// rebuild failures cluster; every study has a last-good copy,
			// so breaker-open windows degrade instead of shedding.
			BreakerThreshold: 5,
			BreakerCooldown:  50 * time.Millisecond,
		},
		Chaos: &faults.ChaosConfig{
			Seed:           7,
			BuildFailAfter: 1, // warmed once, every rebuild fails
			LatencyRate:    0.05,
			LatencySpike:   5 * time.Millisecond,
			SlowClientRate: 0.05,
			SlowChunk:      256,
			SlowDelay:      time.Millisecond,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm phase: build each study once (attempt 1 always succeeds), so
	// chaos failures always have a last-good copy to fall back on.
	for _, cfg := range soakConfigs {
		body := fetchBody(t, ts.URL+"/v1/quality?"+cfg)
		if body == "" {
			t.Fatal("empty warmup response")
		}
	}

	endpoints := []string{
		"/v1/quality?%s",
		"/v1/predict?%s",
		"/v1/q2?%s",
		"/v1/q1?%s&workload=W6",
		"/v1/q3?%s",
	}
	var (
		mu           sync.Mutex
		statusCounts = map[int]int64{}
		// cheap (non-q3) requests tracked separately: they must stay
		// almost perfectly available while q3 sheds its overload.
		cheapTotal, cheapOK int64
		// degraded bodies keyed by (path, reason): all byte-identical.
		degradedBodies = map[string]string{}
	)
	record := func(path string, resp *http.Response, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		statusCounts[resp.StatusCode]++
		if !strings.HasPrefix(path, "/v1/q3") {
			cheapTotal++
			if resp.StatusCode == http.StatusOK {
				cheapOK++
			}
		}
		if reason := resp.Header.Get("X-Rainshine-Degraded"); reason != "" {
			key := path + "|" + reason
			if prev, ok := degradedBodies[key]; ok {
				if prev != string(body) {
					t.Errorf("degraded body for %s not byte-stable", key)
				}
			} else {
				degradedBodies[key] = string(body)
			}
		}
	}
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("GET %s = %d (outside the 200/429/503 contract): %.200s",
				path, resp.StatusCode, body)
		}
		record(path, resp, body)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < requestsPerClient; j++ {
				cfg := soakConfigs[(c+j)%len(soakConfigs)]
				get(fmt.Sprintf(endpoints[(c*requestsPerClient+j)%len(endpoints)], cfg))
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()

	// Synchronized q3 bursts against the 2+2 q3 class until sheds are
	// observed (a single burst suffices in practice; the loop removes
	// any scheduling luck).
	for attempt := 0; attempt < 5; attempt++ {
		burstStart := make(chan struct{})
		var bwg sync.WaitGroup
		for i := 0; i < q3Burst; i++ {
			bwg.Add(1)
			go func() {
				defer bwg.Done()
				<-burstStart
				get("/v1/q3?" + soakConfigs[0])
			}()
		}
		close(burstStart)
		bwg.Wait()
		if fetchSnapshot(t, ts.URL).Resilience.ShedTotal() > 0 {
			break
		}
	}
	wall := time.Since(t0)

	snap := fetchSnapshot(t, ts.URL)
	var total, ok200 int64
	mu.Lock()
	for code, n := range statusCounts {
		total += n
		if code == http.StatusOK {
			ok200 += n
		}
	}
	cheapAvailability := float64(cheapOK) / float64(cheapTotal)
	mu.Unlock()
	availability := float64(ok200) / float64(total)

	if snap.Resilience.ShedTotal() == 0 {
		t.Error("soak produced zero sheds: admission control never engaged")
	}
	if snap.Resilience.DegradedServed == 0 {
		t.Error("soak produced zero degraded responses: fallback path never engaged")
	}
	if snap.Resilience.ChaosBuildFaults == 0 {
		t.Error("chaos injected zero build faults")
	}
	if availability < soakAvailabilityMin {
		t.Errorf("availability = %.3f, SLO floor %.2f (statuses: %v)",
			availability, soakAvailabilityMin, statusCounts)
	}
	if cheapAvailability < soakCheapAvailabilityMin {
		t.Errorf("cheap-endpoint availability = %.4f, SLO floor %.2f — overload leaked past the q3 class",
			cheapAvailability, soakCheapAvailabilityMin)
	}
	if p99 := snap.Requests["/v1/quality"].LatencyMS.P99; p99 > soakCheapP99MaxMS {
		t.Errorf("/v1/quality p99 = %.1fms, SLO %.0fms", p99, soakCheapP99MaxMS)
	}
	if p99 := snap.Requests["/v1/q3"].LatencyMS.P99; p99 > soakQ3P99MaxMS {
		t.Errorf("/v1/q3 p99 = %.1fms, SLO %.0fms", p99, soakQ3P99MaxMS)
	}

	t.Logf("%d requests in %v (%.0f req/s): availability %.3f (cheap %.4f), sheds %d (queue %d, breaker %d), degraded %d, chaos faults %d/%d/%d",
		total, wall, float64(total)/wall.Seconds(), availability, cheapAvailability,
		snap.Resilience.ShedTotal(), snap.Resilience.ShedQueueFull, snap.Resilience.ShedBreakerOpen,
		snap.Resilience.DegradedServed,
		snap.Resilience.ChaosBuildFaults, snap.Resilience.ChaosLatencies, snap.Resilience.ChaosSlowClients)

	statusJSON := map[string]int64{}
	mu.Lock()
	for code, n := range statusCounts {
		statusJSON[fmt.Sprintf("%d", code)] = n
	}
	mu.Unlock()
	writeBenchSection(t, "soak", struct {
		Test              string                      `json:"test"`
		Clients           int                         `json:"clients"`
		Requests          int64                       `json:"requests"`
		WallSeconds       float64                     `json:"wall_seconds"`
		RequestsPerSecond float64                     `json:"requests_per_second"`
		Availability      float64                     `json:"availability"`
		CheapAvailability float64                     `json:"cheap_availability"`
		SLO               map[string]float64          `json:"slo"`
		StatusCounts      map[string]int64            `json:"status_counts"`
		Resilience        ResilienceCounters          `json:"resilience"`
		Builds            BuildCounters               `json:"builds"`
		Endpoints         map[string]EndpointSnapshot `json:"endpoints"`
	}{
		Test:              "TestChaosSoakOverload",
		Clients:           clients,
		Requests:          total,
		WallSeconds:       wall.Seconds(),
		RequestsPerSecond: float64(total) / wall.Seconds(),
		Availability:      availability,
		CheapAvailability: cheapAvailability,
		SLO: map[string]float64{
			"availability_min":       soakAvailabilityMin,
			"cheap_availability_min": soakCheapAvailabilityMin,
			"quality_p99_max_ms":     soakCheapP99MaxMS,
			"q3_p99_max_ms":          soakQ3P99MaxMS,
		},
		StatusCounts: statusJSON,
		Resilience:   snap.Resilience,
		Builds:       snap.Builds,
		Endpoints:    snap.Requests,
	})
}

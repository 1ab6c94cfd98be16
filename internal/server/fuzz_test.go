package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rainshine"
)

// FuzzServeQuery sends GET requests with arbitrary paths and raw
// queries through the daemon's whole middleware stack. Whatever study
// the query asks for, the build stub answers with one small real study,
// so every analysis runs. Each answer must be typed: 200, a 301 from
// the mux's path cleaning, a 404, or a 400 whose body is an apiError.
// A 500 means a panic reached the recovery middleware, or an analysis
// failed on a request the parser accepted. /metricz may only ever hold
// the registered routes and the shared unmatched bucket as keys.
func FuzzServeQuery(f *testing.F) {
	// The CLI's -small study.
	study, err := rainshine.NewStudy(rainshine.WithDays(365), rainshine.WithRacks(120, 100))
	if err != nil {
		f.Fatal(err)
	}
	build := func(context.Context, StudyConfig) (*rainshine.Study, error) { return study, nil }
	// Logf stays the default (log.Printf): a panic's stack reaches the
	// fuzzer's output.
	srv := New(Config{build: build})
	routes := map[string]bool{unmatchedRoute: true}
	for _, path := range []string{"/healthz", "/metricz", "/v1/stream", "/v1/q1", "/v1/q2", "/v1/q3", "/v1/predict", "/v1/quality"} {
		routes[path] = true
		f.Add(path, "")
	}
	for _, seed := range [][2]string{
		// Valid parameters.
		{"/v1/q1", "workload=W3&hourly=true&seed=7&days=365&racks=120,100"},
		{"/v1/q2", "ratios=1,1.5,2"},
		{"/v1/q3", "seed=42&faults=true"},
		{"/v1/stream", "watermark=3"},
		// TestBadParamsAre400's cases.
		{"/v1/q1", "racks=0,10"},
		{"/v1/q1", "workload=W9"},
		{"/v1/q2", "ratios=-1"},
		{"/v1/q2", "ratios=inf"},
		{"/v1/q2", "ratios=NaN"},
		{"/v1/q2", "ratios=" + tooManyRatios},
		{"/v1/q3", "days=bogus"},
		{"/v1/predict", "seed=-3"},
		{"/v1/quality", "faults=perhaps"},
		// An oversized study, repeated and percent-encoded keys.
		{"/v1/quality", "racks=1000000,1000000"},
		{"/v1/q1", "workload=W1&workload=W9"},
		{"/v1/q2", "ratios=1%2C2&r%61tios=3"},
		{"/v1/q3", "days=%zz&seed=%2B1"},
		// Unknown and uncleaned paths.
		{"/v1/nope", ""},
		{"/v1//q1", "workload=W2"},
		{"/v1/../healthz", ""},
		{"/v1/q1/", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, path, rawQuery string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		req, err := http.NewRequest(http.MethodGet, "http://rainshine"+path+"?"+rawQuery, nil)
		if err != nil {
			t.Skip("not a request URL")
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusMovedPermanently, http.StatusNotFound:
		case http.StatusBadRequest:
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("GET %s?%s: 400 body %q is not a typed error", path, rawQuery, rec.Body)
			}
		default:
			t.Fatalf("GET %s?%s = %d: %s", path, rawQuery, rec.Code, rec.Body)
		}
		for route := range srv.Metrics().Snapshot(1).Requests {
			if !routes[route] {
				t.Fatalf("GET %s?%s added the /metricz key %q", path, rawQuery, route)
			}
		}
	})
}

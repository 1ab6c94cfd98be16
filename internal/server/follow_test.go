package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rainshine"
	"rainshine/internal/leakcheck"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
)

// followStudy is the tiny study the follower tests stream.
var followStudy = StudyConfig{Seed: 5, Days: 40, Racks: [2]int{3, 2}}

// writeFollowLog simulates the follow study and writes its stream log,
// returning the path and the day count.
func writeFollowLog(t *testing.T, dir string) string {
	t.Helper()
	res, err := simulate.Run(followStudy.simConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "study.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := stream.WriteStudyLog(f, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func followServer(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers: 1,
		Logf:    t.Logf,
		build:   failingBuild(),
		Follow: &FollowConfig{
			Path:         path,
			Study:        followStudy,
			PollInterval: 2 * time.Millisecond,
			LongPoll:     5 * time.Second,
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// failingBuild keeps registry builds out of follower tests.
func failingBuild() buildFunc {
	return func(ctx context.Context, sc StudyConfig) (*rainshine.Study, error) {
		panic("follower tests must not build studies")
	}
}

func getStreamStatus(t *testing.T, url string) (streamStatus, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body streamStatus
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body, resp
}

// TestFollowStreamToSeal tails a complete log to its seal and checks
// the long-poll endpoint, the watermark header, and the /metricz
// stream section along the way.
func TestFollowStreamToSeal(t *testing.T) {
	leakcheck.Check(t)
	path := writeFollowLog(t, t.TempDir())
	s, ts := followServer(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Follow(ctx) }()

	deadline := time.After(30 * time.Second)
	watermark := -1
	var final streamStatus
	for {
		body, resp := getStreamStatus(t, ts.URL+"/v1/stream")
		final = body
		if h := resp.Header.Get("X-Rainshine-Watermark"); h == "" {
			t.Fatal("missing X-Rainshine-Watermark header")
		}
		if body.Watermark < watermark {
			t.Fatalf("watermark went backwards: %d -> %d", watermark, body.Watermark)
		}
		watermark = body.Watermark
		if body.Error != "" {
			t.Fatalf("follower error: %s", body.Error)
		}
		if body.Sealed {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stream never sealed (watermark %d)", watermark)
		default:
		}
	}
	if watermark != followStudy.Days {
		t.Fatalf("sealed watermark = %d, want %d", watermark, followStudy.Days)
	}
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}

	// The stream section must be present and final in /metricz.
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stream == nil {
		t.Fatal("/metricz has no stream section")
	}
	if !snap.Stream.Sealed || snap.Stream.Watermark != followStudy.Days {
		t.Fatalf("stream counters = %+v, want sealed at %d", snap.Stream, followStudy.Days)
	}
	if snap.Stream.Lag != 0 || snap.Stream.Late != 0 || snap.Stream.Duplicates != 0 {
		t.Fatalf("clean replay left quarantines: %+v", snap.Stream)
	}
	if snap.Stream.Refits == 0 {
		t.Fatalf("live refitter never ran: %+v", snap.Stream)
	}
	// Every refit is counted by its outcome, in /metricz and in the
	// sealed /v1/stream body alike.
	oc := snap.Stream.RefitOutcomes
	if oc.Initial+oc.Stats+oc.Subtrees+oc.Full != snap.Stream.Refits || oc.Initial != 1 {
		t.Fatalf("refit outcomes %+v do not split %d refits", oc, snap.Stream.Refits)
	}
	if final.RefitOutcomes != oc || final.Refits != snap.Stream.Refits {
		t.Fatalf("/v1/stream refits %d %+v, /metricz %d %+v", final.Refits, final.RefitOutcomes, snap.Stream.Refits, oc)
	}
}

// TestFollowLongPollWakesOnDayClose starts a long-poll before the log
// is complete; appending the rest of the log must release it with an
// advanced watermark, without waiting out the long-poll window.
func TestFollowLongPollWakesOnDayClose(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	full, err := os.ReadFile(writeFollowLog(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "partial.log")
	// Enough bytes for the magic plus a little telemetry, cut on a frame
	// boundary: magic + one whole climate frame.
	cut := 8 + 8 + 25
	if err := os.WriteFile(partial, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := followServer(t, partial)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Follow(ctx) }()

	// A long-poll for watermark > 0 can only be released by new data.
	got := make(chan streamStatus, 1)
	go func() {
		body, _ := getStreamStatus(t, ts.URL+"/v1/stream?watermark=0")
		got <- body
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if err := os.WriteFile(partial, full, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-got:
		if body.Watermark < 1 {
			t.Fatalf("long-poll released at watermark %d, want > 0", body.Watermark)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("long-poll never released")
	}
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
}

// TestStreamEndpointWithoutFollower: the route exists but reports that
// no stream is attached.
func TestStreamEndpointWithoutFollower(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{Logf: t.Logf, build: failingBuild()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if err := s.Follow(context.Background()); err == nil {
		t.Fatal("Follow without config succeeded")
	}
}

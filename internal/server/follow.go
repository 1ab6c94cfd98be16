package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"rainshine/internal/faults"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
	"rainshine/internal/topology"
)

// FollowConfig attaches a live stream follower to the daemon: a
// goroutine tails an append-only stream log, drives a watermark
// maintainer, and publishes its state through /v1/stream (long-poll)
// and the /metricz stream section.
type FollowConfig struct {
	// Path is the stream log file to tail.
	Path string
	// Study identifies the study the stream belongs to; the maintainer
	// rebuilds its deterministic substrate from this config.
	Study StudyConfig
	// Lateness is the maintainer's out-of-order slack in days
	// (stream.Config semantics: 0 means 1, negative means none).
	Lateness int
	// PollInterval is the tail cadence when the log has no new bytes
	// (default 200ms).
	PollInterval time.Duration
	// LongPoll bounds how long /v1/stream holds a request waiting for
	// the watermark to advance (default 10s).
	LongPoll time.Duration
}

func (c FollowConfig) withDefaults() FollowConfig {
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Millisecond
	}
	if c.LongPoll <= 0 {
		c.LongPoll = 10 * time.Second
	}
	return c
}

// simConfig translates the study key to the simulation config the
// stream maintainer rebuilds its substrate from.
func (c StudyConfig) simConfig(workers int) simulate.Config {
	c = c.Normalize()
	sc := simulate.Config{
		Seed:     c.Seed,
		Days:     c.Days,
		Topology: topology.Config{RacksPerDC: c.Racks},
		Workers:  workers,
	}
	if c.Faults {
		fc := faults.Defaults()
		sc.Faults = &fc
	}
	return sc
}

// follower tails one stream log. State is published under a lock; the
// change channel is closed and replaced whenever the watermark moves,
// which is what /v1/stream long-polls on.
type follower struct {
	cfg     FollowConfig
	workers int
	metrics *Metrics
	logf    func(format string, args ...any)

	mu        sync.Mutex
	running   bool
	stats     stream.Stats
	lastClose stream.DayClose
	err       error
	change    chan struct{}
}

func newFollower(cfg FollowConfig, workers int, m *Metrics, logf func(string, ...any)) *follower {
	return &follower{
		cfg:     cfg.withDefaults(),
		workers: workers,
		metrics: m,
		logf:    logf,
		change:  make(chan struct{}),
	}
}

// snapshot returns the published state plus the channel that closes on
// the next watermark advance.
func (f *follower) snapshot() (stream.Stats, stream.DayClose, error, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats, f.lastClose, f.err, f.change
}

// publish updates the observable state; wake says whether long-polls
// should be released (the watermark moved, the stream sealed, or the
// follower failed).
func (f *follower) publish(st stream.Stats, dc stream.DayClose, err error, wake bool) {
	f.mu.Lock()
	f.stats = st
	f.lastClose = dc
	if err != nil {
		f.err = err
	}
	if wake {
		close(f.change)
		f.change = make(chan struct{})
	}
	f.mu.Unlock()
	f.metrics.SetStream(StreamCounters{
		Following:  true,
		RecordsIn:  st.RecordsIn,
		Watermark:  st.Watermark,
		MaxDaySeen: st.MaxDaySeen,
		Lag:        st.Lag,
		Late:       st.Late,
		Duplicates: st.Duplicates,
		Sealed:     st.Sealed,
		Refits:     st.Refits,
	})
}

// tailReader turns a growing file into a blocking stream: at end of
// data it polls for appended bytes instead of reporting EOF, so a torn
// tail mid-append reads as "not yet written" rather than truncation.
// Context cancellation surfaces as a clean EOF.
type tailReader struct {
	ctx  context.Context
	r    io.Reader
	poll time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll): //lint:allow clockinject tail poll cadence is timing-only; bytes read are position-addressed
		}
	}
}

// run tails the log until the stream seals, the context ends, or the
// log turns out to be corrupt. It is the body of Server.Follow.
func (f *follower) run(ctx context.Context) error {
	m, err := stream.NewMaintainer(stream.Config{
		Sim:      f.cfg.Study.simConfig(f.workers),
		Lateness: f.cfg.Lateness,
	})
	if err != nil {
		return fmt.Errorf("server: stream maintainer: %w", err)
	}
	file, err := os.Open(f.cfg.Path)
	if err != nil {
		f.publish(m.Stats(), m.LastClose(), err, true)
		return fmt.Errorf("server: stream log: %w", err)
	}
	defer file.Close()
	f.publish(m.Stats(), m.LastClose(), nil, false)

	// The buffer only batches reads: a partial frame still blocks in
	// the tail reader until the rest is appended.
	rd, err := stream.NewReader(bufio.NewReader(&tailReader{ctx: ctx, r: file, poll: f.cfg.PollInterval}))
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.publish(m.Stats(), m.LastClose(), err, true)
		return fmt.Errorf("server: stream log: %w", err)
	}
	for {
		rec, err := rd.Next()
		if err != nil {
			if ctx.Err() != nil {
				// Shutdown mid-frame reads as truncation; not a log defect.
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) {
				// Only reachable when the tail reader is released by
				// cancellation between frames.
				return ctx.Err()
			}
			f.publish(m.Stats(), m.LastClose(), err, true)
			return fmt.Errorf("server: stream log: %w", err)
		}
		before := m.Watermark()
		if err := m.Apply(ctx, &rec); err != nil {
			f.publish(m.Stats(), m.LastClose(), err, true)
			return fmt.Errorf("server: stream replay: %w", err)
		}
		sealed := m.Sealed()
		f.publish(m.Stats(), m.LastClose(), nil, m.Watermark() != before || sealed)
		if sealed {
			f.logf("server: stream sealed at watermark %d (%d records, %d late, %d duplicates)",
				m.Watermark(), m.Stats().RecordsIn, m.Stats().Late, m.Stats().Duplicates)
			return nil
		}
	}
}

// Follow tails the configured stream log until the stream seals or ctx
// ends. It returns an error only for a corrupt or unreadable log; a
// cancelled context is a clean shutdown. Calling Follow on a server
// without a Follow config is an error.
func (s *Server) Follow(ctx context.Context) error {
	if s.follower == nil {
		return errors.New("server: no stream follow configured")
	}
	s.follower.mu.Lock()
	if s.follower.running {
		s.follower.mu.Unlock()
		return errors.New("server: stream follower already running")
	}
	s.follower.running = true
	s.follower.mu.Unlock()
	err := s.follower.run(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}

// streamStatus is the /v1/stream response body.
type streamStatus struct {
	stream.Stats
	LastClose stream.DayClose `json:"last_close"`
	Error     string          `json:"error,omitempty"`
}

// handleStream serves the stream's live state. With ?watermark=N the
// request long-polls: it returns as soon as the watermark exceeds N
// (or the stream seals / fails / the long-poll window ends), so a
// client can follow day-closes without busy-waiting. The current
// watermark always rides the X-Rainshine-Watermark header.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.follower == nil {
		s.writeError(w, http.StatusNotFound, errors.New("no stream attached (serve -follow <log>)"))
		return
	}
	since := -1
	if v := r.URL.Query().Get("watermark"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("bad watermark %q: must be a non-negative integer", v))
			return
		}
		since = n
	}
	wait := time.NewTimer(s.follower.cfg.LongPoll) //lint:allow clockinject long-poll deadline bounds the wait; the response carries only watermark state
	defer wait.Stop()
	for {
		st, dc, ferr, change := s.follower.snapshot()
		if st.Watermark > since || st.Sealed || ferr != nil {
			s.writeStreamStatus(w, st, dc, ferr)
			return
		}
		select {
		case <-r.Context().Done():
			s.writeStreamStatus(w, st, dc, ferr)
			return
		case <-wait.C:
			s.writeStreamStatus(w, st, dc, ferr)
			return
		case <-change:
		}
	}
}

func (s *Server) writeStreamStatus(w http.ResponseWriter, st stream.Stats, dc stream.DayClose, ferr error) {
	w.Header().Set("X-Rainshine-Watermark", strconv.Itoa(st.Watermark))
	body := streamStatus{Stats: st, LastClose: dc}
	if ferr != nil {
		body.Error = ferr.Error()
	}
	s.writeJSON(w, http.StatusOK, body)
}

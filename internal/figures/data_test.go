package figures

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rainshine/internal/failure"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

func TestFlightKeepsOnlySuccess(t *testing.T) {
	var f flight[int]
	var calls atomic.Int64
	boom := errors.New("boom")
	fail := true
	fn := func(context.Context) (int, error) {
		calls.Add(1)
		if fail {
			return 0, boom
		}
		return 7, nil
	}
	ctx := context.Background()
	if _, err := f.get(ctx, fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	for i := 0; i < 2; i++ {
		if v, err := f.get(ctx, fn); v != 7 || err != nil {
			t.Fatalf("get = %v, %v", v, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2 (the failure is not kept, the success is)", n)
	}
}

// TestFlightWaiterOutlivesCanceledLeader: the computation ends with its
// caller's ctx; a caller with a live ctx must get a value, not that
// error.
func TestFlightWaiterOutlivesCanceledLeader(t *testing.T) {
	var f flight[int]
	var calls atomic.Int64
	started := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 7, nil
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.get(leaderCtx, fn)
		leaderErr <- err
	}()
	<-started
	// The leader ends only once canceled, after this caller has joined.
	time.AfterFunc(20*time.Millisecond, cancel)
	if v, err := f.get(context.Background(), fn); v != 7 || err != nil {
		t.Errorf("waiter: get = %v, %v, want 7", v, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	if v, err := f.get(context.Background(), fn); v != 7 || err != nil || calls.Load() != 2 {
		t.Errorf("after: get = %v, %v with %d calls, want 7 from the memo after 2", v, err, calls.Load())
	}
}

// TestFlightWaiterHonorsOwnCtx: a waiter whose ctx ends returns at once
// with its own error, and the computation it waited on still lands.
func TestFlightWaiterHonorsOwnCtx(t *testing.T) {
	var f flight[int]
	started, release := make(chan struct{}), make(chan struct{})
	fn := func(context.Context) (int, error) {
		close(started)
		<-release
		return 7, nil
	}
	leader := make(chan int, 1)
	go func() {
		v, _ := f.get(context.Background(), fn)
		leader <- v
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := f.get(ctx, fn); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter err = %v, want its own deadline", err)
	}
	close(release)
	if v := <-leader; v != 7 {
		t.Errorf("leader got %d", v)
	}
	if v, err := f.get(context.Background(), nil); v != 7 || err != nil {
		t.Errorf("memo = %v, %v", v, err)
	}
}

// TestFlightPanicReleasesWaiters: a computation that panics must not
// leave its waiters blocked, nor its zero value memoized.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	var f flight[int]
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		f.get(context.Background(), func(context.Context) (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	errLate := errors.New("joined after the panic")
	_, err := f.get(context.Background(), func(context.Context) (int, error) { return 0, errLate })
	switch {
	case errors.Is(err, errLate):
		t.Log("the panic landed before this caller joined; waiter path not exercised")
	case !errors.Is(err, errPanicked):
		t.Errorf("waiter err = %v, want errPanicked", err)
	}
	if p := <-leader; p != "boom" {
		t.Errorf("leader recovered %v, want the panic", p)
	}
	if v, err := f.get(context.Background(), func(context.Context) (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("after a panic: get = %v, %v, want a fresh computation", v, err)
	}
}

// TestLazyValPanicIsNotASuccess: a compute-once cell whose computation
// panicked must not serve a zero value as a success to later callers.
func TestLazyValPanicIsNotASuccess(t *testing.T) {
	var l lazyVal[*int]
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("first caller recovered %v, want the panic", p)
			}
		}()
		l.get(func() (*int, error) { panic("boom") })
	}()
	v, err := l.get(func() (*int, error) { return new(int), nil })
	if v != nil || !errors.Is(err, errPanicked) {
		t.Errorf("after a panic: get = %v, %v, want nil, errPanicked", v, err)
	}
}

func TestMuKeySpace(t *testing.T) {
	a, ok := muKeyOf([]failure.Component{failure.DIMM, failure.Disk}, metrics.Hourly)
	b, okB := muKeyOf([]failure.Component{failure.Disk, failure.DIMM, failure.Disk}, metrics.Hourly)
	if !ok || !okB || a != b {
		t.Errorf("order and repeats must not matter: %v %v", a, b)
	}
	for _, bad := range []struct {
		comps []failure.Component
		g     metrics.Granularity
	}{
		{nil, metrics.Daily},
		{[]failure.Component{failure.NumComponents}, metrics.Daily},
		{[]failure.Component{-1}, metrics.Daily},
		{[]failure.Component{failure.Disk}, metrics.Monthly + 1},
	} {
		if _, ok := muKeyOf(bad.comps, bad.g); ok {
			t.Errorf("%v at %v is outside the key space", bad.comps, bad.g)
		}
	}
}

func TestMemoSharesMu(t *testing.T) {
	res, err := simulate.Run(simulate.Config{Seed: 5, Days: 60, Topology: topology.Config{RacksPerDC: [2]int{8, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	d := From(res)
	a, err := d.Mu([]failure.Component{failure.DIMM, failure.Disk}, metrics.Daily)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Mu([]failure.Component{failure.Disk, failure.DIMM}, metrics.Daily)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("one component set computed twice")
	}
	if _, err := d.Mu([]failure.Component{failure.NumComponents}, metrics.Daily); err == nil {
		t.Error("invalid component must reach MuDistributions' error")
	}
}

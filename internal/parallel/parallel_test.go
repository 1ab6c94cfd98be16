package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rainshine/internal/leakcheck"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 237
		hit := make([]int, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			hit[i]++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyAndSmall(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	ran := false
	if err := ForEach(context.Background(), 8, 1, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("n=1: err=%v ran=%t", err, ran)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 100, func(i int) error {
			if i%30 == 7 { // fails at 7, 37, 67, 97
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Errorf("workers=%d: err = %v, want lowest-index failure", workers, err)
		}
	}
}

// TestForEachPanicReachesCaller checks that a panicking task's value
// reaches the caller's recover at any worker count (the lowest-index one
// when several tasks panic), that an error at a lower index wins as it
// would in a serial loop, and that no pool goroutine outlives the call.
func TestForEachPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			recovered := func(fn func(i int) error) (p any) {
				defer func() { p = recover() }()
				if err := ForEach(context.Background(), workers, 40, fn); err != nil {
					t.Errorf("err = %v, want a panic", err)
				}
				return nil
			}
			got := recovered(func(i int) error {
				switch i {
				case 9:
					panic(boom)
				case 31:
					panic("task 31")
				case 20:
					return errors.New("task 20 failed")
				}
				return nil
			})
			if got != boom {
				t.Errorf("recovered %v, want the lowest-index panic value %v", got, boom)
			}
			err := ForEach(context.Background(), workers, 40, func(i int) error {
				switch i {
				case 3:
					return errors.New("task 3 failed")
				case 9:
					panic(boom)
				}
				return nil
			})
			if err == nil || err.Error() != "task 3 failed" {
				t.Errorf("err = %v, want the lower-index error", err)
			}
		})
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEach(ctx, 4, 50, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("tasks ran under a canceled context")
	}
}

func TestForEachWorkerSlotExclusive(t *testing.T) {
	// Two tasks sharing a worker slot must never overlap: per-slot
	// scratch without locks is the whole point. Guard each slot with a
	// mutex that would trip -race (and the TryLock check) on overlap.
	const workers = 4
	locks := make([]sync.Mutex, workers)
	scratch := make([]int, workers)
	err := ForEachWorker(context.Background(), workers, 500, func(w, i int) error {
		if !locks[w].TryLock() {
			return fmt.Errorf("worker slot %d ran two tasks concurrently", w)
		}
		defer locks[w].Unlock()
		scratch[w]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range scratch {
		total += s
	}
	if total != 500 {
		t.Errorf("slot totals = %d, want 500", total)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := Map(context.Background(), workers, 64, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(context.Background(), 4, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Errorf("err = %v, want boom 3", err)
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, parts int
		want     [][2]int
	}{
		{0, 4, nil},
		{5, 1, [][2]int{{0, 5}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{7, 0, [][2]int{{0, 7}}},
	}
	for _, c := range cases {
		got := Chunks(c.n, c.parts)
		if len(got) != len(c.want) {
			t.Errorf("Chunks(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Chunks(%d,%d)[%d] = %v, want %v", c.n, c.parts, i, got[i], c.want[i])
			}
		}
		// Ranges must tile [0, n) exactly.
		prev := 0
		for _, r := range got {
			if r[0] != prev || r[1] < r[0] {
				t.Errorf("Chunks(%d,%d): bad tiling %v", c.n, c.parts, got)
			}
			prev = r[1]
		}
		if c.n > 0 && prev != c.n {
			t.Errorf("Chunks(%d,%d) ends at %d", c.n, c.parts, prev)
		}
	}
}

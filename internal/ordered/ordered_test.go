package ordered

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunDeliversInIndexOrder: with random per-item delays, so items finish
// out of order, deliver still sees every item once, in index order, with
// its own result; each lane runs one item at a time.
func TestRunDeliversInIndexOrder(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		delays := make([]time.Duration, n)
		rng := rand.New(rand.NewSource(int64(workers)))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		busy := make([]atomic.Bool, workers+1)
		next := 0
		err := Run(context.Background(), n, workers, func(i, lane int) (int, error) {
			if lane < 1 || lane > workers {
				return 0, fmt.Errorf("item %d on lane %d", i, lane)
			}
			if !busy[lane].CompareAndSwap(false, true) {
				return 0, fmt.Errorf("lane %d runs two items at once", lane)
			}
			defer busy[lane].Store(false)
			time.Sleep(delays[i])
			return i * i, nil
		}, func(i, v int) error {
			if i != next || v != i*i {
				return fmt.Errorf("delivered item %d (value %d), want item %d", i, v, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != n {
			t.Fatalf("workers=%d: delivered %d of %d items", workers, next, n)
		}
	}
}

// TestRunBoundsUndelivered: while deliver is blocked on item 0, the workers
// stop once 2*workers items are started but undelivered.
func TestRunBoundsUndelivered(t *testing.T) {
	const n = 100
	for _, workers := range []int{2, 4} {
		var started, delivered, peak atomic.Int64
		err := Run(context.Background(), n, workers, func(i, lane int) (int, error) {
			inFlight := started.Add(1) - delivered.Load()
			for {
				p := peak.Load()
				if inFlight <= p || peak.CompareAndSwap(p, inFlight) {
					break
				}
			}
			return i, nil
		}, func(i, _ int) error {
			if i == 0 {
				deadline := time.Now().Add(5 * time.Second)
				for started.Load() < int64(2*workers) {
					if time.Now().After(deadline) {
						return fmt.Errorf("only %d items started while item 0 was held", started.Load())
					}
					time.Sleep(time.Millisecond)
				}
				// Give a runaway worker the chance to overshoot.
				time.Sleep(20 * time.Millisecond)
				if s := started.Load(); s != int64(2*workers) {
					return fmt.Errorf("%d items started while item 0 was held, want %d", s, 2*workers)
				}
			}
			delivered.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p := peak.Load(); p > int64(2*workers) {
			t.Fatalf("workers=%d: %d items started but undelivered, want at most %d", workers, p, 2*workers)
		}
	}
}

// TestRunFirstErrorInIndexOrder: when two items fail, the lower index's
// error is returned even though the higher one fails first in wall-clock
// time, and nothing at or after the failing index is delivered.
func TestRunFirstErrorInIndexOrder(t *testing.T) {
	errLow, errHigh := errors.New("item 3 failed"), errors.New("item 7 failed")
	for _, workers := range []int{1, 3, 8} {
		var delivered []int
		err := Run(context.Background(), 20, workers, func(i, _ int) (int, error) {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return 0, errLow
			case 7:
				return 0, errHigh
			}
			return i, nil
		}, func(i, _ int) error {
			delivered = append(delivered, i)
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
		if len(delivered) != 3 {
			t.Fatalf("workers=%d: delivered %v, want items 0..2", workers, delivered)
		}
	}
}

// TestRunDeliverErrorStops: an error from deliver ends the run too.
func TestRunDeliverErrorStops(t *testing.T) {
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		calls := 0
		err := Run(context.Background(), 50, workers, func(i, _ int) (int, error) { return i, nil }, func(i, _ int) error {
			calls++
			if i == 5 {
				return sinkErr
			}
			return nil
		})
		if !errors.Is(err, sinkErr) || calls != 6 {
			t.Fatalf("workers=%d: err = %v after %d deliveries, want %v after 6", workers, err, calls, sinkErr)
		}
	}
}

// TestRunCancelMidRun: cancelling from deliver stops the run with an error
// wrapping context.Canceled, and Run returns only once no work call is
// running; none starts afterwards.
func TestRunCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var active atomic.Int64
		var returned, lateWork atomic.Bool
		calls := 0
		err := Run(ctx, 1000, workers, func(i, _ int) (int, error) {
			if returned.Load() {
				lateWork.Store(true)
			}
			active.Add(1)
			defer active.Add(-1)
			if i < 10 { // ready before the cancel: must still not be delivered
				return i, nil
			}
			select {
			case <-time.After(time.Millisecond):
				return i, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}, func(i, _ int) error {
			calls++
			if i == 5 {
				cancel()
			}
			return nil
		})
		returned.Store(true)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
		if calls != 6 {
			t.Fatalf("workers=%d: %d items delivered, want 6", workers, calls)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("workers=%d: %d work calls still running after Run returned", workers, a)
		}
		time.Sleep(10 * time.Millisecond)
		if lateWork.Load() {
			t.Fatalf("workers=%d: a work call started after Run returned", workers)
		}
		cancel()
	}
}

// TestRunCancelledBeforeStart: a dead context runs no work at all.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := Run(ctx, 10, workers, func(i, _ int) (int, error) {
			t.Errorf("workers=%d: work ran item %d under a dead context", workers, i)
			return i, nil
		}, func(int, int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
	}
}

// TestRunEmpty: n == 0 calls neither function at any worker count.
func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		err := Run(context.Background(), 0, workers, func(i, _ int) (int, error) {
			t.Errorf("workers=%d: work called with n == 0", workers)
			return 0, nil
		}, func(int, int) error {
			t.Errorf("workers=%d: deliver called with n == 0", workers)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

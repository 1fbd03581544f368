// Package ordered runs indexed work on a bounded pool of goroutines and
// hands the results to a consumer strictly in index order. It is the one
// scheduler behind the probing campaigns, the dispatch fleet and parallel
// checkpoint replay: items may finish in any order, but the consumer sees
// item 0, then item 1, and so on, so everything downstream is identical at
// any worker count.
package ordered

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Run calls work for items 0..n-1 and deliver for each result in index
// order.
//
//   - workers <= 1 runs every item inline on lane 1 without starting a
//     goroutine. Otherwise up to workers goroutines run on lanes
//     1..workers; a lane runs one item at a time, so it can index
//     per-worker scratch state without locking.
//   - At most 2*workers items are started but not yet delivered: a slow
//     deliver holds the workers back instead of letting results pile up.
//   - The first error in index order, from work or deliver, ends the run
//     and is returned. Results after it are discarded, so the error does
//     not depend on the worker count or on which worker finished first.
//   - ctx is checked before each delivery; once it is done, Run returns an
//     error wrapping ctx.Err() unless an earlier item already failed.
//
// Run returns only after every goroutine it started has exited, so a work
// function that can run long must itself return promptly once ctx is done.
func Run[T any](ctx context.Context, n, workers int, work func(i, lane int) (T, error), deliver func(i int, v T) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return interrupted(i, n, err)
			}
			v, err := work(i, 1)
			if err != nil {
				return err
			}
			if err := deliver(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	// tokens holds one token per item claimed but not yet delivered. Items
	// are claimed in index order, so the item deliver waits for always
	// holds one, and item i+window is claimed only after item i was
	// delivered: window slots of capacity one suffice, and a worker's send
	// never blocks.
	window := 2 * workers
	tokens := make(chan struct{}, window)
	slots := make([]chan result, window)
	for s := range slots {
		slots[s] = make(chan result, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 1; lane <= workers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-stop:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := work(i, lane)
				slots[i%window] <- result{v, err}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return interrupted(i, n, err)
		}
		var r result
		select {
		case r = <-slots[i%window]:
		case <-ctx.Done():
			return interrupted(i, n, ctx.Err())
		}
		if r.err != nil {
			return r.err
		}
		if err := deliver(i, r.v); err != nil {
			return err
		}
		<-tokens
	}
	return nil
}

func interrupted(i, n int, err error) error {
	return fmt.Errorf("ordered: interrupted at item %d of %d: %w", i, n, err)
}

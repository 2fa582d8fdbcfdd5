// Package sim is the deterministic parallel campaign runtime. Every
// campaign in this repository — the D1 drive campaigns, the D2 crawl
// fan-out, the Fig. 7–8 sweeps, and the ablations — decomposes into
// independently-seeded, order-indexed jobs executed on a bounded worker
// pool. Results are merged strictly in job-index order, so campaign
// output is byte-identical for any worker count: workers=1 reproduces
// the serial output exactly, and workers=N merely finishes sooner.
//
// The invariant that makes this work: a job's behavior depends only on
// its index (and the seed derived from it — see DeriveSeed), never on
// scheduling order, goroutine identity, or wall-clock time.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrStop is returned by a Collect consumer to end a campaign early
// (e.g. a handoff quota has been met). Collect then cancels outstanding
// jobs, discards their results, and returns nil.
var ErrStop = errors.New("sim: stop")

// Options configures a campaign run.
type Options struct {
	// Workers bounds the worker pool. Values <= 0 mean runtime.NumCPU().
	// The worker count never affects campaign output, only wall-clock.
	Workers int
	// Progress, if non-nil, is called from the merging goroutine after
	// each in-order delivery with the number of jobs delivered so far.
	// total is the job count, or -1 when the job sequence is unbounded.
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Run executes jobs 0..n-1 on the worker pool and returns their results
// in job-index order. A job error or panic cancels the run and is
// returned; cancellation of ctx returns ctx.Err(). n <= 0 returns an
// empty slice.
func Run[T any](ctx context.Context, opts Options, n int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	inner := opts
	if p := opts.Progress; p != nil {
		inner.Progress = func(done, _ int) { p(done, n) }
	}
	err := Collect(ctx, inner,
		func(i int) (func(context.Context) (T, error), bool) {
			if i >= n {
				return nil, false
			}
			return func(c context.Context) (T, error) { return job(c, i) }, true
		},
		func(i int, v T) error {
			out[i] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Collect executes an open-ended job sequence on the worker pool and
// delivers results to consume strictly in job-index order from a single
// goroutine (no locking needed in the consumer). gen(i) returns job i,
// or ok=false to end the sequence. consume may return ErrStop to end
// the campaign early — jobs past the stop point are cancelled and their
// results discarded, so early-stopping campaigns (quota loops) produce
// the same output the serial loop would.
//
// Jobs run speculatively at most 2×workers indices ahead of the lowest
// undelivered index, which bounds memory. It does not make a stop free:
// cancellation only skips jobs that have not started, jobs in flight run
// to completion, and a worker can dequeue one more job before the
// stopping delivery's cancel lands. A quota producer should therefore
// make a job whose result is already moot a no-op, as BuildD1 does for
// a campaign whose quota is met. A panic inside a job surfaces as an
// error naming the job. On any error the first one (in job-index order
// of delivery) is returned and the partial output already consumed
// should be discarded by the caller.
func Collect[T any](ctx context.Context, opts Options, gen func(i int) (func(context.Context) (T, error), bool), consume func(i int, v T) error) error {
	workers := opts.workers()
	window := 2 * workers
	runCtx, cancel := context.WithCancel(ctx)
	// LIFO defer order: cancel runs first and unblocks the dispatcher's
	// selects, then the join below reaps it — an early consume error can
	// never leak the dispatcher past Collect's return.
	var dispatcherWG sync.WaitGroup
	defer dispatcherWG.Wait()
	defer cancel()

	type task struct {
		idx int
		fn  func(context.Context) (T, error)
	}
	type result struct {
		idx int
		val T
		err error
	}
	// results is buffered to the speculation window and a ticket is held
	// from dispatch until in-order delivery, so workers never block on
	// the send and the merger never deadlocks.
	tasks := make(chan task)
	results := make(chan result, window)
	tickets := make(chan struct{}, window)

	dispatcherWG.Add(1)
	go func() { // dispatcher: feeds tasks in index order, window-bounded
		defer dispatcherWG.Done()
		defer close(tasks)
		for i := 0; ; i++ {
			fn, ok := gen(i)
			if !ok {
				return
			}
			select {
			case tickets <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			select {
			case tasks <- task{i, fn}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range tasks {
				val, err := runJob(runCtx, t.idx, t.fn)
				results <- result{t.idx, val, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]result, window)
	next := 0
	var firstErr error
	for r := range results {
		if firstErr != nil {
			continue // draining after error or stop
		}
		pending[r.idx] = r
		for {
			pr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			<-tickets
			if pr.err == nil {
				pr.err = consume(next, pr.val)
			}
			if pr.err != nil {
				firstErr = pr.err
				cancel()
				break
			}
			next++
			if opts.Progress != nil {
				opts.Progress(next, -1)
			}
		}
	}
	if errors.Is(firstErr, ErrStop) {
		return nil
	}
	if firstErr == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// runJob executes one job, converting a panic into an error and
// skipping work that was cancelled before it started.
func runJob[T any](ctx context.Context, idx int, fn func(context.Context) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: job %d panicked: %v", idx, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return val, err
	}
	return fn(ctx)
}

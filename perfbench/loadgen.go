package main

import (
	"context"
	"sync"
	"time"
)

// loadgen is an open-loop load generator: request i is due at start +
// due[i] whether or not earlier requests have completed, as independent
// users would send it. A dispatcher releases each request at its due time
// to a fixed pool of senders, one per connection; a request that finds
// every connection busy waits in the queue. Latency is timed from the due
// time, so a stall counts against every request it delays, including
// those still queued behind it (no coordinated omission). How late the
// dispatcher itself released each request is recorded separately: it is
// the generator's own error, not the program's.
type loadgen struct {
	// conns is the number of concurrent senders (connections).
	conns int
	// send performs request i and checks its reply.
	send func(ctx context.Context, i int) error
	// prepare, when set, runs in the dispatcher for request i before it is
	// released; the tests slow the sender with it.
	prepare func(i int)
}

// loadResult is what happened to one request, as offsets from the start.
type loadResult struct {
	Due, Sent, Done time.Duration
	Late            time.Duration // dispatcher release time minus due time
	Err             error
}

// Latency is the request's latency from its due time.
func (r loadResult) Latency() time.Duration { return r.Done - r.Due }

// run sends every request of the schedule and returns once all have
// completed. due must be ascending.
func (g loadgen) run(ctx context.Context, due []time.Duration) []loadResult {
	res := make([]loadResult, len(due))
	// Sized to the whole schedule so the dispatcher never blocks on a
	// stalled program: queueing happens here, in front of the senders.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res[i].Sent = time.Since(start)
				res[i].Err = g.send(ctx, i)
				res[i].Done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			for ; i < len(due); i++ {
				res[i] = loadResult{Due: due[i], Sent: due[i], Done: due[i], Err: ctx.Err()}
			}
			break
		}
		if g.prepare != nil {
			g.prepare(i)
		}
		res[i].Due = d
		res[i].Late = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

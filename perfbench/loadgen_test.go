package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openLoop drives n requests at rate per second against handler over two
// connections, with prepare run by the dispatcher before each release.
func openLoop(t *testing.T, handler http.HandlerFunc, n int, rate float64, prepare func(int)) []loadResult {
	t.Helper()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	g := loadgen{conns: 2, prepare: prepare, send: func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}}
	res := g.run(context.Background(), due)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	return res
}

func p99(res []loadResult, f func(loadResult) time.Duration) time.Duration {
	xs := make([]float64, len(res))
	for i, r := range res {
		xs[i] = float64(f(r))
	}
	return time.Duration(quantile(sortedCopy(xs), 0.99))
}

// A handler that stalls once for 200 ms, holding a lock every request
// needs (as an ingest holds the world lock), must show up in the p99
// measured from due time: requests queued behind the stall count it,
// although each one, once sent, is answered at once.
func TestStallShowsInLatencyFromDue(t *testing.T) {
	var mu sync.Mutex
	var n atomic.Int64
	handler := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 50 {
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
	}
	res := openLoop(t, handler, 500, 500, nil)
	fromDue := p99(res, loadResult.Latency)
	fromSend := p99(res, func(r loadResult) time.Duration { return r.Done - r.Sent })
	late := p99(res, func(r loadResult) time.Duration { return r.Late })
	if fromDue < 150*time.Millisecond {
		t.Errorf("p99 from due time = %v, want >= 150ms: the stall is hidden", fromDue)
	}
	if fromSend >= 100*time.Millisecond {
		t.Errorf("p99 from send time = %v; expected the stall to hit only the requests in flight", fromSend)
	}
	if late > 50*time.Millisecond {
		t.Errorf("generator lateness p99 = %v: a stalled program must not delay dispatch", late)
	}
}

// A sender that cannot keep up with the schedule must show up in the
// generator's lateness, not pass unnoticed.
func TestSlowSenderShowsInLateness(t *testing.T) {
	handler := func(w http.ResponseWriter, r *http.Request) {}
	res := openLoop(t, handler, 200, 1000, func(int) { time.Sleep(5 * time.Millisecond) })
	if late := p99(res, func(r loadResult) time.Duration { return r.Late }); late < 100*time.Millisecond {
		t.Errorf("generator lateness p99 = %v, want >= 100ms for a sender 5x slower than the schedule", late)
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{{5, 100}, {39, 100}, {40, 75}, {99, 75}, {100, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if d := summarize(xs); d.TailPct != tc.wantPct || d.N != tc.n {
			t.Errorf("n=%d: tail percentile %v (n=%d), want %v", tc.n, d.TailPct, d.N, tc.wantPct)
		}
	}
}

// The read stall is the median over ingest windows of each window's
// slowest read: a read waiting behind every ingest sets it, and one
// window the host slows far more does not.
func TestReadStallIsMedianOfWindowMaxima(t *testing.T) {
	dur := ingestFirst + 5*ingestPeriod
	var lr []loadResult
	var reqs []readReq
	for due := time.Duration(0); due < dur; due += 10 * time.Millisecond {
		lat := time.Millisecond
		if due >= ingestFirst && (due-ingestFirst)%ingestPeriod == 0 {
			lat = 80 * time.Millisecond // due as an ingest takes the world lock
			if due == ingestFirst+2*ingestPeriod {
				lat = 900 * time.Millisecond
			}
		}
		lr = append(lr, loadResult{Due: due, Sent: due, Done: due + lat})
		reqs = append(reqs, readReq{})
	}
	// An ingest's own request does not count as a read.
	for k := time.Duration(0); k < 2; k++ {
		due := ingestFirst + k*ingestPeriod
		lr = append(lr, loadResult{Due: due, Sent: due, Done: due + 5*time.Second})
		reqs = append(reqs, readReq{ingest: &ingestBody{}})
	}
	stall, windows := readStall(lr, reqs, dur)
	if windows != 5 || stall != 80 {
		t.Errorf("readStall = %v ms over %d windows, want 80 ms over 5", stall, windows)
	}
}

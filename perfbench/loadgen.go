package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/httpapi"
)

// arrival is one scheduled request of an open-loop workload.
type arrival struct {
	// at is the due time, as an offset from the start of the window.
	at time.Duration
	// id identifies the request in spans and payloads (from 1).
	id uint64
	fn string
	// body is the routed /invoke request.
	body []byte
	// check validates the invocation's result.
	check func(result json.RawMessage) error
}

// sample is the client's record of one request.
type sample struct {
	due, sent, done time.Time
	err             error // transport error, non-200 status or bad result
	resp            httpapi.RoutedInvokeResponse
}

// drive is one timed window of open-loop load against a fleet.
type drive struct {
	samples []sample
	// backlog is the requests still unanswered when the window ended.
	backlog int64
	// cpu is the process CPU time from the window's start until the last
	// reply; elapsed is the wall time over the same span.
	cpu, elapsed time.Duration
	// workerConns counts router-to-worker connections opened meanwhile.
	workerConns int64
	// start is when the window began; rss holds the resident-memory
	// readings taken during it.
	start time.Time
	rss   []rssSample
}

// driveLoad sends every arrival at its due time, each on its own
// goroutine, and waits for all replies. The window lasts window; late
// replies are waited for up to drain after it.
func driveLoad(ctx context.Context, f *fleet, arrivals []arrival, window, drain time.Duration) (*drive, error) {
	d := &drive{samples: make([]sample, len(arrivals))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	rctx, cancel := context.WithTimeout(ctx, window+drain)
	defer cancel()
	conns0 := f.workerConns.Load()
	mem := startRSS()
	cpu0 := cpuTime()
	start := time.Now().Add(time.Millisecond)
	d.start = start
	for i := range arrivals {
		due := start.Add(arrivals[i].at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			break
		}
		d.samples[i].sent = time.Now()
		inflight.Add(1)
		wg.Add(1)
		go func(a *arrival, s *sample) {
			defer wg.Done()
			defer inflight.Add(-1)
			f.send(rctx, f.url, a, s, due)
		}(&arrivals[i], &d.samples[i])
	}
	time.Sleep(time.Until(start.Add(window)))
	d.backlog = inflight.Load()
	wg.Wait()
	d.cpu = cpuTime() - cpu0
	d.rss = mem.finish()
	last := start
	for _, s := range d.samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	d.elapsed = last.Sub(start)
	d.workerConns = f.workerConns.Load() - conns0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// send posts one request to the /invoke endpoint of base (the router,
// or a worker during set-up) and records its sample; s.sent is the time
// the generator released it.
func (f *fleet) send(ctx context.Context, base string, a *arrival, s *sample, due time.Time) {
	s.due = due
	defer func() {
		s.done = time.Now()
		f.spans.record(a.id, spanClient, s.due, s.done)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/invoke", bytes.NewReader(a.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if f.spans != nil {
		req.Header.Set(requestIDHeader, strconv.FormatUint(a.id, 10))
	}
	client := f.client
	if base != f.url {
		client = f.direct
	}
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	switch {
	case err != nil:
		s.err = fmt.Errorf("read reply: %w", err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &s.resp); err != nil {
			s.err = fmt.Errorf("decode reply: %w", err)
		} else if s.resp.Fn != a.fn {
			s.err = fmt.Errorf("reply names function %q, sent %q", s.resp.Fn, a.fn)
		} else if err := a.check(s.resp.Result); err != nil {
			s.err = err
		}
	}
}

// latencies returns each request's latency from its due time, in ms;
// a failed request reads +Inf, so it misses every limit.
func (d *drive) latencies() []float64 {
	out := make([]float64, len(d.samples))
	for i, s := range d.samples {
		out[i] = math.Inf(1)
		if s.err == nil {
			out[i] = ms(s.done.Sub(s.due))
		}
	}
	return out
}

// failures counts failed requests and returns the first few errors.
func (d *drive) failures() (n int64, first []string) {
	for _, s := range d.samples {
		if s.err != nil {
			n++
			if len(first) < 5 {
				first = append(first, s.err.Error())
			}
		}
	}
	return n, first
}

// lateness returns how late the generator sent each request, in ms.
func (d *drive) lateness() []float64 {
	out := make([]float64, len(d.samples))
	for i, s := range d.samples {
		out[i] = ms(s.sent.Sub(s.due))
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/platform"
)

// burst-io: the paper's headline case (Fig. 10). Open loop: bursts of
// burstSize same-function arrivals within burstSpan, burst starts
// Poisson at burstRate/burstSize per second, Zipf popularity over
// ioFunctions storage functions.
const (
	ioFunctions = 40
	burstSize   = 20
	burstSpan   = 2 * time.Millisecond
	burstRate   = 400.0 // invocations per second
	zipfS       = 1.1
	// clientBuild is the storage client's construction cost, paid once
	// per (container, bucket) thanks to the multiplexer.
	clientBuild = 20 * time.Millisecond
	// ioWait is the handler's storage round trip after building.
	ioWait = 5 * time.Millisecond
	// ioWindow is the paper's fixed dispatch window; ioKeepAlive is
	// shorter than the burst gaps of the Zipf tail, so cold starts keep
	// happening inside the timed window.
	ioWindow    = 200 * time.Millisecond
	ioKeepAlive = time.Second
	coldStart   = 25 * time.Millisecond
)

// sparse-warm: per-invocation overhead alone. Open loop: Poisson at
// sparseRate per second, uniform over echoFunctions warm echo functions.
const (
	echoFunctions = 500
	sparseRate    = 400.0
	// sparseMinWindow and sparseMaxWindow bound the adaptive window.
	// The idle fast path needs a function's smoothed arrival gap above
	// the cap; at 0.8 arrivals per function per second a 5 ms cap keeps
	// all but a few per mille of arrivals on the fast path, and bounds
	// the wait of those few, so windows, batches and cold starts stay
	// out of the measured tail.
	sparseMinWindow = time.Millisecond
	sparseMaxWindow = 5 * time.Millisecond
	// sparseLimit is sparse-warm's latency limit: an echo through the
	// router and a warm fast-path dispatch takes ~2-3 ms on a 2-vCPU
	// host, so 10 ms leaves room for scheduler noise while still
	// counting any request that waited on a window, a cold start or a
	// stalled forward as a miss.
	sparseLimit = 10 * time.Millisecond
)

func runBurstIO(ctx context.Context, c config) (*outcome, error) {
	return runLive(ctx, c, burstIO())
}

func runSparseWarm(ctx context.Context, c config) (*outcome, error) {
	return runLive(ctx, c, sparseWarm())
}

func burstIO() *liveWorkload {
	fns := names("io", ioFunctions)
	return &liveWorkload{
		fleet: fleetSpec{
			platform: platform.Config{
				Mode:             platform.ModeBatch,
				DispatchInterval: ioWindow,
				ColdStart:        coldStart,
				KeepAlive:        ioKeepAlive,
				Multiplex:        true,
			},
			register: func(p *platform.Platform, spans *spanRecorder) error {
				for _, fn := range fns {
					if err := p.Register(fn, storageHandler(spans)); err != nil {
						return err
					}
				}
				return nil
			},
		},
		functions: fns,
		arrivals: func(seed int64, window time.Duration, corrupt bool) []arrival {
			r := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(r, zipfS, 1, ioFunctions-1)
			bursts := int(burstRate / burstSize * window.Seconds())
			var out []arrival
			for _, start := range uniformTimes(r, bursts, window-burstSpan) {
				fn := int(zipf.Uint64())
				for _, off := range uniformTimes(r, burstSize, burstSpan) {
					out = append(out, arrival{at: start + off, fn: fns[fn]})
				}
			}
			return finish(out, func(a *arrival) {
				bucket := bucketOf(a.fn)
				a.body = routedBody(a.fn, fmt.Appendf(nil, `{"id":%d,"bucket":%q}`, a.id, bucket))
				a.check = checkStorage(a.id, bucket, corrupt)
			})
		},
		warm: func(fn string) arrival {
			return arrival{fn: fn, body: routedBody(fn, fmt.Appendf(nil, `{"bucket":%q}`, bucketOf(fn))), check: checkStorage(0, bucketOf(fn), false)}
		},
		limit: 2 * ioWindow,
		// A burst saturates both CPUs for several milliseconds and the
		// generator shares them, so it runs up to a few bursts late; an
		// eighth of the limit still bounds its error on latency well
		// below the window it measures.
		lateBound: ioWindow / 4,
		// Little's law at the limit: rate x limit requests may be in
		// flight, plus one burst arriving as the window closes.
		backlogBound: int64(burstRate*(2*ioWindow).Seconds()) + burstSize,
	}
}

func sparseWarm() *liveWorkload {
	fns := names("echo", echoFunctions)
	return &liveWorkload{
		fleet: fleetSpec{
			platform: platform.Config{
				Mode:             platform.ModeBatch,
				DispatchInterval: ioWindow,
				AdaptiveDispatch: true,
				MinInterval:      sparseMinWindow,
				MaxInterval:      sparseMaxWindow,
				ColdStart:        coldStart,
				KeepAlive:        time.Hour,
				Multiplex:        true,
			},
			register: func(p *platform.Platform, spans *spanRecorder) error {
				for _, fn := range fns {
					if err := p.Register(fn, echoHandler(spans)); err != nil {
						return err
					}
				}
				return nil
			},
		},
		functions: fns,
		// Warm every function on every worker, where bounded-load
		// spillover may send it. One arrival per worker leaves each
		// function's gap estimate unprimed; a second, back-to-back one
		// would prime it with a gap of a few milliseconds and hold the
		// first timed arrival for a window.
		warmDirect: true,
		arrivals: func(seed int64, window time.Duration, corrupt bool) []arrival {
			r := rand.New(rand.NewSource(seed))
			times := uniformTimes(r, int(sparseRate*window.Seconds()), window)
			out := make([]arrival, len(times))
			for i, at := range times {
				out[i] = arrival{at: at, fn: fns[r.Intn(len(fns))]}
			}
			return finish(out, func(a *arrival) {
				payload := fmt.Appendf(nil, `{"id":%d,"pad":"%016x"}`, a.id, r.Uint64())
				a.body = routedBody(a.fn, payload)
				a.check = checkEcho(payload, corrupt)
			})
		},
		warm: func(fn string) arrival {
			payload := []byte(`{"warm":true}`)
			return arrival{fn: fn, body: routedBody(fn, payload), check: checkEcho(payload, false)}
		},
		limit: sparseLimit,
		// A generator later than the limit itself would decide the
		// attainment it measures.
		lateBound:    sparseLimit,
		backlogBound: int64(sparseRate*sparseLimit.Seconds()) + 20,
	}
}

// uniformTimes draws n sorted offsets uniformly in [0, span): the
// arrival times of a Poisson process conditioned on its count, so every
// run of a workload sends the same number of requests.
func uniformTimes(r *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finish orders arrivals by due time, numbers them from 1 and builds
// each request.
func finish(out []arrival, build func(*arrival)) []arrival {
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	for i := range out {
		out[i].id = uint64(i + 1)
		build(&out[i])
	}
	return out
}

func names(stem string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", stem, i)
	}
	return out
}

func bucketOf(fn string) string { return "bucket-" + fn }

// routedBody encodes a router /invoke request.
func routedBody(fn string, payload []byte) []byte {
	b, err := json.Marshal(httpapi.RoutedInvokeRequest{Fn: fn, Payload: payload})
	if err != nil {
		panic(err) // payloads are generated valid JSON
	}
	return b
}

// storagePayload is the storage functions' input and result.
type storagePayload struct {
	ID     uint64 `json:"id"`
	Bucket string `json:"bucket"`
}

// storageClient stands in for a cloud-storage client bound to a bucket.
type storageClient struct{ bucket string }

// storageHandler builds (or reuses) the bucket's client through the
// container's multiplexer, waits on storage I/O, and answers with the
// bucket the client it got is bound to.
func storageHandler(spans *spanRecorder) platform.Handler {
	return func(ctx context.Context, inv *platform.Invocation) (any, error) {
		start := time.Now()
		var in storagePayload
		if err := json.Unmarshal(inv.Payload, &in); err != nil {
			return nil, err
		}
		getStart := time.Now()
		got, _, err := inv.Resources.GetContext(ctx, "storage", in.Bucket, func() (any, int64, error) {
			time.Sleep(clientBuild)
			return &storageClient{bucket: in.Bucket}, 64 << 10, nil
		})
		spans.record(in.ID, spanMuxGet, getStart, time.Now())
		if err != nil {
			return nil, err
		}
		time.Sleep(ioWait)
		spans.record(in.ID, spanHandler, start, time.Now())
		return storagePayload{ID: in.ID, Bucket: got.(*storageClient).bucket}, nil
	}
}

// echoHandler answers with its payload.
func echoHandler(spans *spanRecorder) platform.Handler {
	return func(_ context.Context, inv *platform.Invocation) (any, error) {
		start := time.Now()
		out := json.RawMessage(bytes.Clone(inv.Payload))
		if spans != nil {
			var in storagePayload
			if json.Unmarshal(inv.Payload, &in) == nil {
				spans.record(in.ID, spanHandler, start, time.Now())
			}
		}
		return out, nil
	}
}

func checkStorage(id uint64, bucket string, corrupt bool) func(json.RawMessage) error {
	if corrupt {
		bucket += "-wrong"
	}
	return func(result json.RawMessage) error {
		var got storagePayload
		if err := json.Unmarshal(result, &got); err != nil {
			return fmt.Errorf("decode result: %w", err)
		}
		if got.Bucket != bucket || got.ID != id {
			return fmt.Errorf("result names bucket %q id %d, want %q id %d", got.Bucket, got.ID, bucket, id)
		}
		return nil
	}
}

func checkEcho(payload []byte, corrupt bool) func(json.RawMessage) error {
	want := payload
	if corrupt {
		want = append(bytes.Clone(payload[:len(payload)-1]), ' ', '}')
	}
	return func(result json.RawMessage) error {
		if !bytes.Equal(result, want) {
			return fmt.Errorf("echo returned %s, want %s", result, want)
		}
		return nil
	}
}

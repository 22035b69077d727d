package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/router"
)

// liveWorkload is an open-loop workload against an in-process fleet.
type liveWorkload struct {
	fleet fleetSpec
	// functions are each invoked once during set-up: through the
	// router, or with warmDirect straight on every worker, so that each
	// worker holds a warm container of every function.
	functions  []string
	warmDirect bool
	// arrivals generates the timed window's requests from the seed;
	// warm builds a set-up request for one function.
	arrivals func(seed int64, window time.Duration, corrupt bool) []arrival
	warm     func(fn string) arrival
	// limit is the latency limit of slo_attainment.
	limit time.Duration
	// lateBound rejects a run whose generator sent its p99 request
	// later than this; backlogBound rejects a run that ended its window
	// with more requests unanswered.
	lateBound    time.Duration
	backlogBound int64
}

const (
	// setupReps is how many times a run sets up, reporting the median.
	setupReps = 5
	// warmConcurrency bounds the set-up's warm-up requests in flight,
	// so set-up time is paced by cold starts rather than by how fast
	// the host can open hundreds of connections at once.
	warmConcurrency = 32
	// drainLimit bounds the wait for replies after the window ends.
	drainLimit = 30 * time.Second
	// spanSumTolerance bounds how far the per-request span self-times
	// may sum from the client-observed latency, as a share of it. The
	// spans nest, so any larger gap means a span was lost or misplaced.
	spanSumTolerance = 0.01
)

// setup starts a fleet and warms every function.
func (w *liveWorkload) setup(ctx context.Context, spans *spanRecorder) (*fleet, error) {
	f, err := startFleet(w.fleet, spans)
	if err != nil {
		return nil, err
	}
	// Open the generator's connection before the concurrent warm-up, so
	// its requests share it as streams instead of each dialling.
	if err := f.ping(ctx); err != nil {
		f.close()
		return nil, err
	}
	targets := []string{f.url}
	if w.warmDirect {
		targets = f.workerURLs
	}
	var reqs []arrival
	var urls []string
	for _, url := range targets {
		for _, fn := range w.functions {
			reqs = append(reqs, w.warm(fn))
			urls = append(urls, url)
		}
	}
	samples := make([]sample, len(reqs))
	sem := make(chan struct{}, warmConcurrency)
	var wg sync.WaitGroup
	for i := range reqs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			samples[i].sent = time.Now()
			f.send(ctx, urls[i], &reqs[i], &samples[i], samples[i].sent)
		}()
	}
	wg.Wait()
	for i, s := range samples {
		if s.err != nil {
			f.close()
			return nil, fmt.Errorf("warm %s at %s: %w", reqs[i].fn, urls[i], s.err)
		}
	}
	return f, nil
}

// window is one measured window with the counters around it.
type window struct {
	*drive
	before, after platform.Stats
	rBefore       router.Stats
	rAfter        router.Stats
	loadConns     int64
}

// measure drives the arrivals and waits for quiescence.
func (w *liveWorkload) measure(ctx context.Context, f *fleet, arrivals []arrival, length time.Duration) (*window, error) {
	win := &window{before: f.workerStats(), rBefore: f.rt.Stats()}
	d, err := driveLoad(ctx, f, arrivals, length, drainLimit)
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.quiesce(qctx); err != nil {
		return nil, err
	}
	win.drive, win.after, win.rAfter = d, f.workerStats(), f.rt.Stats()
	win.loadConns = f.loadConns.Load()
	return win, nil
}

// check applies the output checks and validity guards to a window.
func (w *liveWorkload) check(o *outcome, f *fleet, win *window) {
	failed, first := win.failures()
	o.attempted += int64(len(win.samples))
	o.failed += failed
	if failed > 0 {
		o.problem("%d of %d requests failed, e.g. %v", failed, len(win.samples), first)
	}
	for _, p := range f.workers {
		if s := p.Stats(); s.Submitted != s.Invocations+s.Canceled {
			o.problem("worker %s: submitted %d != invocations %d + canceled %d",
				p.WorkerID(), s.Submitted, s.Invocations, s.Canceled)
		}
	}
	if got, want := win.rAfter.Completed-win.rBefore.Completed, int64(len(win.samples))-failed; got != want {
		o.problem("router completed %d invocations, want sent-failed = %d", got, want)
	}
	if nproc := int64(runtime.NumCPU()); win.loadConns > nproc {
		o.reject("generator opened %d connections to the router, more than nproc=%d", win.loadConns, nproc)
	}
	if late := quantile(sortedCopy(win.lateness()), 0.99); late > ms(w.lateBound) {
		o.reject("generator sent its p99 request %.3f ms late, bound %v", late, w.lateBound)
	}
	if win.backlog > w.backlogBound {
		o.reject("%d requests unanswered at the end of the window, bound %d", win.backlog, w.backlogBound)
	}
}

// runLive runs a live workload: set-up (repeated for setup_s), then the
// timed window; a traced run adds a traced window on a traced fleet.
func runLive(ctx context.Context, c config, w *liveWorkload) (*outcome, error) {
	length := time.Duration(c.seconds * float64(time.Second))
	arrivals := w.arrivals(c.seed, length, c.corrupt)
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var setups []float64
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = w.setup(ctx, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	win, err := w.measure(ctx, f, arrivals, length)
	o := newOutcome()
	if err == nil {
		w.check(o, f, win)
	}
	f.close()
	if err != nil {
		return nil, err
	}
	lat := sortedCopy(win.latencies())
	n := len(lat)
	completed := float64(n) - float64(o.failed)
	if !c.trace {
		within := 0
		for _, l := range lat {
			if l <= ms(w.limit) {
				within++
			}
		}
		p99 := slicedQuantiles(win.latencies(), length, 0.99)
		o.set("latency_p50_ms", quantile(lat, 0.5), n)
		o.set("latency_p99_ms", median(p99), n)
		o.notes = append(o.notes, fmt.Sprintf("per-slice p99 %.4g ms", p99))
		o.set("slo_attainment", float64(within)/float64(n), n)
		o.set("success_share", completed/float64(n), n)
		o.set("cpu_ms_per_inv", ratio(ms(win.cpu), completed), int(completed))
		o.set("kinv_per_s", ratio(completed, win.elapsed.Seconds())/1000, int(completed))
		peaks := slicedPeaks(win.drive, length)
		o.set("peak_rss_mb", median(peaks), len(peaks))
		o.set("setup_s", median(setups), len(setups))
		o.notes = append(o.notes, fmt.Sprintf("per-slice peak resident memory %.4g MiB; process peak %.4g MiB", peaks, peakRSSMB()))
		o.notes = append(o.notes, fmt.Sprintf("slo limit %v; generator late p99 %.3f ms; backlog at window end %d",
			w.limit, quantile(sortedCopy(win.lateness()), 0.99), win.backlog))
		return o, nil
	}
	return o, w.traced(ctx, c, o, arrivals, length, quantile(lat, 0.5))
}

// traced runs the traced window on a traced fleet and fills in the
// per-layer metrics; untracedP50 is the untraced window's median.
func (w *liveWorkload) traced(ctx context.Context, c config, o *outcome, arrivals []arrival, length time.Duration, untracedP50 float64) error {
	spans, err := newSpanRecorder(len(arrivals)*(len(spanLevels)+2) + 4096)
	if err != nil {
		return err
	}
	f, err := w.setup(ctx, spans)
	if err != nil {
		return err
	}
	win, err := w.measure(ctx, f, arrivals, length)
	if err == nil {
		w.check(o, f, win)
	}
	f.close()
	if err != nil {
		return err
	}
	if d := spans.t.Dropped(); d > 0 {
		return fmt.Errorf("span ring dropped %d spans", d)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := writeSpans(path, spans.t); err != nil {
		return err
	}
	o.notes = append(o.notes, "span file "+path)
	layerMetrics(o, win, spans.t.Snapshot())
	lat := sortedCopy(win.latencies())
	o.set("trace.overhead_share", ratio(quantile(lat, 0.5)-untracedP50, untracedP50), len(lat))
	return nil
}

// latencySlice is the span of one slice of a live window. Each slice
// yields its own p99 and peak memory and the run reports their medians,
// so one disturbed stretch of a run (a collection cycle, a noisy
// neighbour) moves the result by at most one slice's rank. At 400 inv/s
// a slice holds 1000 requests, 10 of them beyond the p99.
const latencySlice = 2500 * time.Millisecond

// slicedQuantiles splits the latencies of a window of the given length
// (in due order) into equal slices of about latencySlice each and
// returns each slice's q-quantile.
func slicedQuantiles(lat []float64, length time.Duration, q float64) []float64 {
	k := max(1, int(length/latencySlice))
	var out []float64
	for i := 0; i < k; i++ {
		out = append(out, quantile(sortedCopy(lat[i*len(lat)/k:(i+1)*len(lat)/k]), q))
	}
	return out
}

// slicedPeaks returns the peak resident memory of each latency slice of
// the window.
func slicedPeaks(d *drive, length time.Duration) []float64 {
	k := max(1, int(length/latencySlice))
	var out []float64
	for i := 0; i < k; i++ {
		from := d.start.Add(length * time.Duration(i) / time.Duration(k))
		out = append(out, peakMB(d.rss, from, from.Add(length/time.Duration(k))))
	}
	return out
}

// writeSpans writes the spans as Chrome trace JSON.
func writeSpans(path string, t *obs.Tracer) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(fh); err != nil {
		_ = fh.Close()
		return err
	}
	return fh.Close()
}

// layerMetrics derives the per-layer metrics of a traced window.
func layerMetrics(o *outcome, win *window, spans []obs.Span) {
	byID := map[uint64][]obs.Span{}
	for _, s := range spans {
		byID[s.Trace] = append(byID[s.Trace], s)
	}
	var routerSelf, fwdRTT, wire, workerSelf, muxGet, sched, cold, queue, exec []float64
	var colds, missing int
	worst := 0.0
	for i, s := range win.samples {
		if s.err != nil {
			continue
		}
		id := uint64(i + 1)
		sp := byID[id]
		fwd, wrk := named(sp, spanForward), named(sp, spanWorker)
		if len(named(sp, spanClient)) != 1 || len(named(sp, spanRouter)) != 1 || len(fwd) == 0 || len(wrk) == 0 || len(named(sp, spanHandler)) == 0 {
			missing++
			continue
		}
		fwdSum := 0.0
		for _, f := range fwd {
			fwdRTT = append(fwdRTT, ms(f.Dur()))
			fwdSum += ms(f.Dur())
			for _, k := range wrk {
				if k.Start >= f.Start && k.End <= f.End {
					wire = append(wire, ms(f.Dur()-k.Dur()))
				}
			}
		}
		routerSelf = append(routerSelf, ms(s.done.Sub(s.sent))-fwdSum)
		workerSelf = append(workerSelf, ms(wrk[len(wrk)-1].Dur())-s.resp.Latency.TotalMillis)
		for _, g := range named(sp, spanMuxGet) {
			muxGet = append(muxGet, ms(g.Dur()))
		}
		l := s.resp.Latency
		sched, cold, queue, exec = append(sched, l.SchedMillis), append(cold, l.ColdMillis), append(queue, l.QueueMillis), append(exec, l.ExecMillis)
		if s.resp.Cold {
			colds++
		}
		client := named(sp, spanClient)[0]
		if e := abs(ms(selfSum(sp))-ms(client.Dur())) / ms(client.Dur()); e > worst {
			worst = e
		}
	}
	if missing > 0 {
		o.problem("%d requests lack a span at some layer", missing)
	}
	if worst > spanSumTolerance {
		o.problem("span self-times sum to within %.4f of the client latency, tolerance %v", worst, spanSumTolerance)
	}
	o.set("trace.span_sum_err", worst, len(win.samples))
	pct := func(name string, xs []float64, qs ...float64) {
		s := sortedCopy(xs)
		for _, q := range qs {
			o.set(fmt.Sprintf("%s.p%d", name, int(q*100)), quantile(s, q), len(s))
		}
	}
	pct("router.self_ms", routerSelf, 0.5, 0.99)
	pct("router.forward_rtt_ms", fwdRTT, 0.5, 0.99)
	pct("httpapi.wire_ms", wire, 0.5, 0.99)
	pct("httpapi.worker_self_ms", workerSelf, 0.5, 0.99)
	pct("platform.sched_ms", sched, 0.5, 0.99)
	pct("platform.cold_ms", cold, 0.99)
	pct("platform.queue_ms", queue, 0.99)
	pct("platform.exec_ms", exec, 0.5, 0.99)
	pct("multiplex.get_ms", muxGet, 0.5, 0.99)

	ws := diffStats(win.after, win.before)
	rDone := float64(win.rAfter.Completed - win.rBefore.Completed)
	n := len(sched)
	o.set("router.forwards_per_inv", ratio(float64(win.rAfter.Forwarded-win.rBefore.Forwarded), rDone), int(rDone))
	shed := float64(win.rAfter.Shed - win.rBefore.Shed)
	o.set("router.shed_share", ratio(shed, float64(win.rAfter.Routed-win.rBefore.Routed)+shed), int(rDone))
	o.set("router.conns_per_kinv", ratio(float64(win.workerConns), rDone)*1000, int(rDone))
	o.set("platform.cold_share", ratio(float64(colds), float64(n)), n)
	o.set("platform.retries", float64(ws.Retries), 0)
	o.set("dispatch.group_size_mean", ratio(float64(ws.Invocations), float64(ws.Groups)), int(ws.Groups))
	o.set("dispatch.fast_path_share", ratio(float64(ws.FastPathDispatches), float64(ws.Groups)), int(ws.Groups))
	mx := ws.Multiplexer
	o.set("multiplex.hit_ratio", ratio(float64(mx.Hits), float64(mx.Hits+mx.Misses)), int(mx.Hits+mx.Misses))
	o.set("multiplex.builds", float64(mx.Misses), 0)
	o.set("loadgen.late_ms.p99", quantile(sortedCopy(win.lateness()), 0.99), len(win.samples))
	o.set("loadgen.conns", float64(win.loadConns), 0)
}

// diffStats subtracts the counters the per-layer metrics read.
func diffStats(a, b platform.Stats) platform.Stats {
	d := platform.Stats{
		Invocations:        a.Invocations - b.Invocations,
		Retries:            a.Retries - b.Retries,
		Groups:             a.Groups - b.Groups,
		FastPathDispatches: a.FastPathDispatches - b.FastPathDispatches,
	}
	d.Multiplexer.Hits = a.Multiplexer.Hits - b.Multiplexer.Hits
	d.Multiplexer.Misses = a.Multiplexer.Misses - b.Multiplexer.Misses
	return d
}

// named filters spans by name.
func named(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfSum sums the self times of one request's spans: each span's
// duration minus the part of it that spans of the next level cover.
func selfSum(spans []obs.Span) time.Duration {
	var sum time.Duration
	for l, name := range spanLevels {
		var children []obs.Span
		if l+1 < len(spanLevels) {
			children = named(spans, spanLevels[l+1])
		}
		for _, s := range named(spans, name) {
			sum += s.Dur() - covered(s, children)
		}
	}
	return sum
}

// covered is how much of s the union of the children covers.
func covered(s obs.Span, children []obs.Span) time.Duration {
	var iv [][2]time.Duration
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every output, and prints each
// metric by name with its unit; the last line of standard output is a
// JSON summary. With -trace 0 it reports the end-to-end metrics, with
// -trace 1 the per-layer metrics of a traced run. See README.md.
//
//	bash perfbench/run.sh --workload burst-io --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 success, 1 a failed output check (the summary says
// correct=false), 2 a usage or set-up error, 3 a run rejected by a
// validity guard (no summary is printed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// corrupt makes every output check expect a wrong value, so the
	// self-test can prove that a wrong result fails the run.
	corrupt bool
	// simScale multiplies sim-fleet's arrival rates (the self-test
	// shrinks the scenario to keep itself short).
	simScale float64
}

// outcome is what a workload run hands back to the reporter.
type outcome struct {
	attempted, failed int64
	// problems lists failed output checks; any makes correct=false.
	problems []string
	// rejected lists tripped validity guards; any rejects the run.
	rejected []string
	metrics  map[string]value
	// notes are extra report lines (span file, sample caveats).
	notes []string
}

// value is one measured metric.
type value struct {
	v       float64
	samples int // sample count behind a statistic; 0 when not a sample
}

func newOutcome() *outcome { return &outcome{metrics: map[string]value{}} }

func (o *outcome) set(name string, v float64, samples int) {
	o.metrics[name] = value{v: v, samples: samples}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) reject(format string, args ...any) {
	o.rejected = append(o.rejected, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"burst-io":    runBurstIO,
	"sparse-warm": runSparseWarm,
	"sim-fleet":   runSimFleet,
}

// errUsage marks a bad command line.
var errUsage = errors.New("usage")

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var seconds, trace int
	fs.StringVar(&c.workload, "workload", "", "workload: burst-io, sparse-warm or sim-fleet")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&seconds, "seconds", 10, "timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&c.out, "out", ".bench_build/perfbench-out", "directory for span files and profiles")
	fs.BoolVar(&c.corrupt, "corrupt-expect", false, "expect wrong results (self-test only)")
	fs.Float64Var(&c.simScale, "sim-scale", 1, "sim-fleet arrival-rate multiplier (self-test only)")
	if err := fs.Parse(args); err != nil {
		return c, errUsage
	}
	if _, ok := workloads[c.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", c.workload)
		return c, errUsage
	}
	if seconds < 1 || (trace != 0 && trace != 1) || c.simScale <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1, -trace 0 or 1, -sim-scale > 0")
		return c, errUsage
	}
	c.seconds, c.trace = float64(seconds), trace == 1
	return c, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	fmt.Fprintln(stdout, fingerprint())
	o, err := workloads[c.workload](ctx, c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 2
	}
	if len(o.rejected) > 0 {
		for _, r := range o.rejected {
			fmt.Fprintf(stderr, "perfbench: run rejected: %s\n", r)
		}
		return 3
	}
	table := endToEnd
	if c.trace {
		table = perLayer
	}
	summary, err := report(stdout, c, o, table)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", p)
	}
	if _, err := stdout.Write(summary); err != nil {
		return 2
	}
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

// report prints one line per metric of the table and returns the JSON
// summary line. A missing end-to-end metric is a bug; a per-layer
// metric the workload does not exercise reads 0.
func report(w io.Writer, c config, o *outcome, table []metricDef) ([]byte, error) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v: attempted %d failed %d\n",
		c.workload, c.seed, c.seconds, c.trace, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(table))
	for _, d := range table {
		v, ok := o.metrics[d.name]
		if !ok && !c.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", c.workload, d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			// Failed requests read +Inf; a run with failures is already
			// reported incorrect, so its statistics carry no weight.
			if len(o.problems) == 0 {
				return nil, fmt.Errorf("metric %s is not finite", d.name)
			}
			v.v = 0
		}
		line := fmt.Sprintf("  %-32s %14.6g %-10s", d.name, v.v, d.unit)
		switch {
		case !ok:
			line += " (layer not exercised by this workload)"
		case v.samples > 0:
			line += fmt.Sprintf(" (n=%d)", v.samples)
		}
		fmt.Fprintln(w, line)
		metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fingerprint names the host: absolute numbers swing 2-3x between
// hosts, so every output carries it.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host goos=%s goarch=%s cpu=%q nproc=%d go=%s gomaxprocs=%d",
		runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0))
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime reports the process's user+system CPU time so far.
func cpuTime() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU reports the calling OS thread's user+system CPU time so far;
// the caller must hold its thread with runtime.LockOSThread.
func threadCPU() time.Duration { return rusageCPU(rusageThread) }

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reports the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

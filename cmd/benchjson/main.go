// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout, so CI can track the multiplexer
// performance trajectory across commits.
//
// Usage:
//
//	go test -run=NONE -bench=Multiplex -benchtime=100x ./internal/multiplex | go run ./cmd/benchjson > BENCH_multiplex.json
//
// Besides the raw per-benchmark numbers it derives sharded-vs-global
// speedups for benchmark pairs named BenchmarkMultiplexSharded<X> /
// BenchmarkMultiplexGlobal<X>. Note that wall-clock speedup from lock
// striping only manifests on multi-core hosts: on a single-CPU machine at
// most one goroutine runs at a time, so even a single global mutex is
// almost never contended. The report records NumCPU so readers can judge.
//
// With -hotpath it measures the invoke hot path end to end — warm sim
// submit through the sharded queue, the byte-oriented /invoke wire
// encode/decode, the live worker gateway over loopback HTTP and the
// routed path — reporting throughput, p50/p99 and per-op heap deltas.
// CI gates the sim submit and gateway encode series at 0 allocs/op. The
// JSON lands in BENCH_hotpath.json.
//
//	go run ./cmd/benchjson -hotpath > BENCH_hotpath.json
//
// When the input carries -benchmem columns they are parsed into
// bytes_per_op / allocs_per_op, so CI can gate allocation-free hot paths:
//
//	go test -run=NONE -bench 'TraceParent|Tracer' -benchmem ./internal/obs | go run ./cmd/benchjson > BENCH_obs.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

type benchResult struct {
	Name      string  `json:"name"`
	Ops       int64   `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// BytesPerOp/AllocsPerOp carry the -benchmem columns when present.
	// Pointers distinguish "not measured" (absent) from a measured zero —
	// the zero matters: CI gates the tracing hot paths on 0 allocs/op.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

type report struct {
	Package    string             `json:"package"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUModel   string             `json:"cpu_model,omitempty"`
	NumCPU     int                `json:"num_cpu"`
	Note       string             `json:"note,omitempty"`
	Benchmarks []benchResult      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"sharded_vs_global_speedup,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	hotpathMode := flag.Bool("hotpath", false, "benchmark the invoke hot path (sim submit, wire encode/decode, live gateway, routed) instead of parsing stdin")
	flag.Parse()
	if *hotpathMode {
		if err := runHotpath(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: hotpath:", err)
			os.Exit(1)
		}
		return
	}
	rep := report{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	if rep.NumCPU == 1 {
		rep.Note = "single-CPU host: lock-striping speedup cannot manifest in wall-clock throughput (threads time-slice, so locks are rarely held when contended); compare on a multi-core runner for the parallel ratio"
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPUModel = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ops, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil || ns <= 0 {
			continue
		}
		res := benchResult{
			Name:      m[1],
			Ops:       ops,
			NsPerOp:   ns,
			OpsPerSec: 1e9 / ns,
		}
		if m[4] != "" && m[5] != "" {
			if bpo, err := strconv.ParseInt(m[4], 10, 64); err == nil {
				res.BytesPerOp = &bpo
			}
			if apo, err := strconv.ParseInt(m[5], 10, 64); err == nil {
				res.AllocsPerOp = &apo
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	// Pair BenchmarkMultiplexSharded<X> with BenchmarkMultiplexGlobal<X>.
	byName := map[string]benchResult{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, b := range rep.Benchmarks {
		const pfx = "BenchmarkMultiplexSharded"
		if !strings.HasPrefix(b.Name, pfx) {
			continue
		}
		suffix := strings.TrimPrefix(b.Name, pfx)
		global, ok := byName["BenchmarkMultiplexGlobal"+suffix]
		if !ok {
			continue
		}
		if rep.Speedups == nil {
			rep.Speedups = map[string]float64{}
		}
		rep.Speedups[suffix] = round3(global.NsPerOp / b.NsPerOp)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssPeriod is how often the memory sampler reads resident memory.
const rssPeriod = 10 * time.Millisecond

// rssSampler reads the process's resident memory every rssPeriod on
// its own goroutine, until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []rssSample
}

// rssSample is one reading, in MiB.
type rssSample struct {
	at time.Time
	mb float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.mu.Lock()
				r.samples = append(r.samples, rssSample{time.Now(), mb})
				r.mu.Unlock()
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler, waits for it, and returns its readings.
func (r *rssSampler) finish() []rssSample {
	close(r.stop)
	<-r.done
	return r.samples
}

// peakMB is the highest reading in [from, to).
func peakMB(samples []rssSample, from, to time.Time) float64 {
	peak := 0.0
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) && s.mb > peak {
			peak = s.mb
		}
	}
	return peak
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

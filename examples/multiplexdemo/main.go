// Multiplex demo: the §II-B motivation on the live platform. An I/O
// function builds an expensive storage client; with the Resource
// Multiplexer one container builds it once and every concurrent
// invocation shares it — without, every invocation pays.
//
// The second half showcases the v2 cache: GetContext outcomes,
// handler-driven invalidation, negative caching under a flapping
// dependency, and the bounded LRU closing evicted clients.
//
//	go run ./examples/multiplexdemo
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/multiplex"
	"faasbatch/internal/platform"
)

// clientBuildCost mirrors Fig. 4's un-contended 66 ms construction.
const clientBuildCost = 66 * time.Millisecond

// clientMem mirrors Fig. 14d's ~15 MB per client instance.
const clientMem = 15 << 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multiplexdemo:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, multiplex := range []bool{false, true} {
		builds, wave1, wave2, err := measure(multiplex)
		if err != nil {
			return err
		}
		label := "multiplexer OFF"
		if multiplex {
			label = "multiplexer ON "
		}
		fmt.Printf("%s: 2x16 concurrent invocations -> %2d client builds, mean exec wave1 %v, wave2 %v\n",
			label, builds, wave1.Round(time.Millisecond), wave2.Round(time.Millisecond))
	}
	fmt.Println("\nThe multiplexer builds each client once per container; later waves hit")
	fmt.Println("the cache and skip construction entirely — the paper's §III-D win.")

	return demoV2()
}

// closingClient stands in for a client holding a real connection.
type closingClient struct{ key string }

func (c *closingClient) Close() error {
	fmt.Printf("  closed evicted client %q\n", c.key)
	return nil
}

// demoV2 exercises the failure-aware half of the v2 cache: outcome
// taxonomy, invalidation, negative backoff and bounded eviction.
func demoV2() error {
	fmt.Println("\n--- Resource Multiplexer v2 ---")
	cfg := platform.DefaultConfig()
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 5 * time.Millisecond
	cfg.Multiplexer = multiplex.Config{
		Shards:          1,                      // one shard -> exact global LRU for the demo
		MaxEntries:      2,                      // bounded: third client evicts the LRU one
		NegativeBackoff: 250 * time.Millisecond, // failed builds deny retries briefly
	}
	p, err := platform.New(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = p.Close() }()

	flaky := atomic.Bool{}
	flaky.Store(true)
	err = p.Register("v2", func(ctx context.Context, inv *platform.Invocation) (any, error) {
		get := func(key string) platform.Outcome {
			_, out, err := inv.Resources.GetContext(ctx, "s3.client", key, func() (any, int64, error) {
				return &closingClient{key: key}, clientMem, nil
			})
			if err != nil {
				fmt.Printf("  get %q failed: %v\n", key, err)
			}
			return out
		}

		fmt.Printf("  get \"a\" -> %s, again -> %s\n", get("a"), get("a"))
		inv.Resources.Invalidate("s3.client", "a")
		fmt.Printf("  after Invalidate: get \"a\" -> %s\n", get("a"))

		// A flapping dependency: the first build fails, the immediate
		// retry is absorbed by the negative cache without building.
		_, out, err := inv.Resources.GetContext(ctx, "s3.client", "flaky", func() (any, int64, error) {
			if flaky.Load() {
				return nil, 0, errors.New("connection refused")
			}
			return &closingClient{key: "flaky"}, clientMem, nil
		})
		fmt.Printf("  flaky build -> %s (%v)\n", out, errors.Is(err, platform.ErrBuildFailed))
		_, out, _ = inv.Resources.GetContext(ctx, "s3.client", "flaky", func() (any, int64, error) {
			return nil, 0, errors.New("unreachable: denied before building")
		})
		fmt.Printf("  immediate retry -> %s (constructor not run)\n", out)

		// MaxEntries=2: building "b" and "c" on top of "a" evicts the
		// least-recently-used client, which is closed on the way out.
		get("b")
		get("c")
		return nil, nil
	})
	if err != nil {
		return err
	}
	if _, err := p.Invoke(context.Background(), "v2", nil); err != nil {
		return err
	}
	st := p.Stats().Multiplexer
	fmt.Printf("cache stats: hits=%d misses=%d negative=%d evictions=%d invalidations=%d\n",
		st.Hits, st.Misses, st.NegativeHits, st.Evictions, st.Invalidations)
	return nil
}

// measure runs two waves of 16 concurrent I/O invocations and reports the
// client build count plus each wave's mean execution latency.
func measure(multiplex bool) (int64, time.Duration, time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.DispatchInterval = 50 * time.Millisecond
	cfg.ColdStart = 20 * time.Millisecond
	cfg.Multiplex = multiplex
	p, err := platform.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = p.Close() }()

	var builds atomic.Int64
	err = p.Register("s3func", func(ctx context.Context, inv *platform.Invocation) (any, error) {
		_, _, err := inv.Resources.GetContext(ctx, "s3.client", "ACCESS_KEY", func() (any, int64, error) {
			builds.Add(1)
			time.Sleep(clientBuildCost)
			return "S3_client", clientMem, nil
		})
		if err != nil {
			return nil, err
		}
		time.Sleep(15 * time.Millisecond) // the blob access
		return "ok", nil
	})
	if err != nil {
		return 0, 0, 0, err
	}

	wave := func() time.Duration {
		const n = 16
		var wg sync.WaitGroup
		var mu sync.Mutex
		var total time.Duration
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Invoke(context.Background(), "s3func", nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, "invoke:", err)
					return
				}
				mu.Lock()
				total += res.Exec
				mu.Unlock()
			}()
		}
		wg.Wait()
		return total / n
	}
	wave1 := wave()
	wave2 := wave()
	return builds.Load(), wave1, wave2, nil
}

package multiplex_test

import (
	"context"
	"fmt"

	"faasbatch/internal/multiplex"
)

// The blocking face: concurrent handlers share one expensive client per
// container, exactly like the paper's Listing 1 clients.
func ExampleCache_Acquire() {
	cache := multiplex.New(multiplex.Config{})
	key := multiplex.NewKey("boto3.client", "s3:ACCESS_KEY")

	build := func() (any, int64, error) {
		fmt.Println("building S3 client")
		return "S3_client", 15 << 20, nil
	}
	for i := 0; i < 3; i++ {
		client, out, release, err := cache.Acquire(context.Background(), key, build)
		release()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(client, out)
	}
	st := cache.Stats()
	fmt.Printf("misses=%d hits=%d savedMB=%d\n", st.Misses, st.Hits, st.BytesSaved>>20)
	// Output:
	// building S3 client
	// S3_client miss
	// S3_client hit
	// S3_client hit
	// misses=1 hits=2 savedMB=30
}

// The event-driven face used by the simulator: the first creator builds,
// later requesters coalesce.
func ExampleCache_Begin() {
	cache := multiplex.New(multiplex.Config{})
	key := multiplex.NewKey("client", "args")

	res, _ := cache.Begin(key)
	fmt.Println(res) // the caller becomes the builder

	res2, _ := cache.Begin(key)
	fmt.Println(res2) // a concurrent caller waits
	cache.Wait(key, func(v any) { fmt.Println("waiter got", v) })

	cache.Complete(key, "instance", 1024)

	res3, inst := cache.Begin(key)
	fmt.Println(res3, inst)
	// Output:
	// miss
	// pending
	// waiter got instance
	// hit instance
}

package multiplex

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestHashArgsStableAndDistinct(t *testing.T) {
	a := HashArgs("s3:KEY1")
	b := HashArgs("s3:KEY1")
	c := HashArgs("s3:KEY2")
	if a != b {
		t.Fatal("HashArgs not deterministic")
	}
	if a == c {
		t.Fatal("distinct args hashed equal")
	}
}

func TestNewKey(t *testing.T) {
	k := NewKey("boto3.client", "s3:KEY")
	if k.Callee != "boto3.client" {
		t.Fatalf("Callee = %q", k.Callee)
	}
	if k.ArgsHash != HashArgs("s3:KEY") {
		t.Fatal("ArgsHash mismatch")
	}
}

func TestBeginResultString(t *testing.T) {
	if BeginHit.String() != "hit" || BeginMiss.String() != "miss" || BeginPending.String() != "pending" {
		t.Fatal("BeginResult strings wrong")
	}
	if BeginResult(9).String() != "begin(9)" {
		t.Fatal("unknown BeginResult string wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	res, inst := c.Begin(key)
	if res != BeginMiss || inst != nil {
		t.Fatalf("first Begin = %v, %v; want miss, nil", res, inst)
	}
	c.Complete(key, "S3_client", 15<<20)
	res, inst = c.Begin(key)
	if res != BeginHit || inst != "S3_client" {
		t.Fatalf("second Begin = %v, %v; want hit, S3_client", res, inst)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiveInstances != 1 || st.BytesLive != 15<<20 {
		t.Fatalf("live stats = %+v", st)
	}
	if st.BytesSaved != 15<<20 {
		t.Fatalf("BytesSaved = %d, want one instance worth", st.BytesSaved)
	}
}

func TestPendingCoalesces(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("first Begin should miss")
	}
	if res, _ := c.Begin(key); res != BeginPending {
		t.Fatal("second Begin during build should be pending")
	}
	var got []any
	c.Wait(key, func(v any) { got = append(got, v) })
	c.Wait(key, func(v any) { got = append(got, v) })
	c.Complete(key, "inst", 100)
	if len(got) != 2 || got[0] != "inst" || got[1] != "inst" {
		t.Fatalf("waiters got %v", got)
	}
	st := c.Stats()
	if st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	// Two waiters avoided duplicate instances.
	if st.BytesSaved != 200 {
		t.Fatalf("BytesSaved = %d, want 200", st.BytesSaved)
	}
}

func TestWaitOnReadyKeyFiresImmediately(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "inst", 1)
	fired := false
	c.Wait(key, func(v any) {
		fired = true
		if v != "inst" {
			t.Errorf("waiter got %v", v)
		}
	})
	if !fired {
		t.Fatal("Wait on ready key did not fire immediately")
	}
}

func TestWaitOnAbsentKeyFiresNil(t *testing.T) {
	c := New(Config{})
	fired := false
	c.Wait(NewKey("x", "y"), func(v any) {
		fired = true
		if v != nil {
			t.Errorf("waiter got %v, want nil", v)
		}
	})
	if !fired {
		t.Fatal("Wait on absent key did not fire")
	}
}

func TestFailNotifiesWaitersWithNil(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	var got []any
	c.Wait(key, func(v any) { got = append(got, v) })
	c.Fail(key)
	if len(got) != 1 || got[0] != nil {
		t.Fatalf("waiters got %v, want [nil]", got)
	}
	// After failure the key is buildable again.
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("Begin after Fail should miss")
	}
}

func TestCompleteOnUnknownOrReadyKeyIsNoop(t *testing.T) {
	c := New(Config{})
	c.Complete(NewKey("x", "y"), "v", 1) // unknown: no-op
	key := NewKey("a", "b")
	c.Begin(key)
	c.Complete(key, "first", 1)
	c.Complete(key, "second", 2) // already ready: no-op
	_, inst := c.Begin(key)
	if inst != "first" {
		t.Fatalf("instance = %v, want first", inst)
	}
	st := c.Stats()
	if st.LiveInstances != 1 || st.BytesLive != 1 {
		t.Fatalf("stats after double complete: %+v", st)
	}
}

func TestFailOnUnknownOrReadyKeyIsNoop(t *testing.T) {
	c := New(Config{})
	c.Fail(NewKey("x", "y"))
	key := NewKey("a", "b")
	c.Begin(key)
	c.Complete(key, "v", 1)
	c.Fail(key)
	if res, inst := c.Begin(key); res != BeginHit || inst != "v" {
		t.Fatal("Fail on ready key must not evict it")
	}
}

func TestDistinctArgsAreDistinctEntries(t *testing.T) {
	c := New(Config{})
	k1 := NewKey("client", "bucketA")
	k2 := NewKey("client", "bucketB")
	c.Begin(k1)
	c.Complete(k1, "a", 1)
	if res, _ := c.Begin(k2); res != BeginMiss {
		t.Fatal("different args must not hit")
	}
}

func TestGetOrBuildBlockingFace(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	builds := 0
	build := func() (any, int64, error) {
		builds++
		return "inst", 10, nil
	}
	v, out, release, err := c.Acquire(context.Background(), key, build)
	release()
	if err != nil || out != OutcomeMiss || v != "inst" {
		t.Fatalf("first Acquire = %v, %v, %v", v, out, err)
	}
	v, out, release, err = c.Acquire(context.Background(), key, build)
	release()
	if err != nil || out != OutcomeHit || v != "inst" {
		t.Fatalf("second Acquire = %v, %v, %v", v, out, err)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

func TestGetOrBuildPropagatesError(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	wantErr := errors.New("no network")
	_, _, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) { return nil, 0, wantErr })
	release()
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
	// A later build can succeed.
	v, out, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) { return "ok", 1, nil })
	release()
	if err != nil || out != OutcomeMiss || v != "ok" {
		t.Fatalf("retry Acquire = %v, %v, %v", v, out, err)
	}
}

func TestGetOrBuildConcurrentSingleflight(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, 20)
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, done, err := c.Acquire(context.Background(), key, func() (any, int64, error) {
				builds.Add(1)
				<-release
				return "inst", 5, nil
			})
			done()
			if err != nil {
				t.Errorf("Acquire: %v", err)
			}
			results[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times under concurrency, want 1", got)
	}
	for i, v := range results {
		if v != "inst" {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != 19 {
		t.Fatalf("Hits+Coalesced = %d, want 19", st.Hits+st.Coalesced)
	}
}

func TestClose(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 3; i++ {
		key := NewKey("client", fmt.Sprintf("args%d", i))
		c.Begin(key)
		c.Complete(key, i, 100)
	}
	if freed := c.Close(); freed != 300 {
		t.Fatalf("Close freed %d, want 300", freed)
	}
	st := c.Stats()
	if st.LiveInstances != 0 || st.BytesLive != 0 {
		t.Fatalf("stats after close = %+v", st)
	}
	// The cache is reusable after Close.
	if res, _ := c.Begin(NewKey("client", "args0")); res != BeginMiss {
		t.Fatal("entry survived Close")
	}
}

func TestCloseWithPendingEntryUnblocksWaiters(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// This waiter blocks on the pending build; Close must release it.
		_, _, release, _ := c.Acquire(context.Background(), key, func() (any, int64, error) { return "x", 1, nil })
		release()
	}()
	// Give the goroutine a chance to register; stop once it is either
	// waiting (pending) or already finished (hit).
	for {
		res, _ := c.Begin(key)
		if res == BeginPending || res == BeginHit {
			break
		}
		c.Fail(key) // undo our accidental miss claim and retry
	}
	c.Close()
	<-done
}

// Property: for any sequence of creations over a bounded key space, the
// number of builds equals the number of distinct keys, and every
// non-first creation is saved.
func TestPropertyOneBuildPerDistinctKey(t *testing.T) {
	f := func(keys []uint8) bool {
		c := New(Config{})
		distinct := map[uint8]bool{}
		for _, k := range keys {
			key := NewKey("client", fmt.Sprintf("%d", k%8))
			res, _ := c.Begin(key)
			if res == BeginMiss {
				c.Complete(key, k, 1)
			}
			distinct[k%8] = true
		}
		st := c.Stats()
		return st.Misses == uint64(len(distinct)) &&
			st.Hits == uint64(len(keys)-len(distinct)) &&
			st.BytesSaved == int64(len(keys)-len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []Key
	// One shard makes the LRU order globally exact for the assertion.
	c := New(Config{Shards: 1, MaxEntries: 2, OnEvict: func(k Key, inst any, bytes int64) {
		evicted = append(evicted, k)
		if bytes != 10 {
			t.Errorf("evicted bytes = %d, want 10", bytes)
		}
	}})
	k1, k2, k3 := NewKey("c", "1"), NewKey("c", "2"), NewKey("c", "3")
	for _, k := range []Key{k1, k2} {
		c.Begin(k)
		c.Complete(k, k.ArgsHash, 10)
	}
	// Touch k1 so k2 becomes the LRU victim.
	if res, _ := c.Begin(k1); res != BeginHit {
		t.Fatal("k1 should hit")
	}
	c.Begin(k3)
	c.Complete(k3, "v3", 10)
	if len(evicted) != 1 || evicted[0] != k2 {
		t.Fatalf("evicted = %v, want [k2]", evicted)
	}
	st := c.Stats()
	if st.LiveInstances != 2 || st.BytesLive != 20 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// k2 rebuilds on next access.
	if res, _ := c.Begin(k2); res != BeginMiss {
		t.Fatal("evicted key should miss")
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 100; i++ {
		k := NewKey("c", fmt.Sprintf("%d", i))
		c.Begin(k)
		c.Complete(k, i, 1)
	}
	st := c.Stats()
	if st.Evictions != 0 || st.LiveInstances != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionNeverDropsTheJustCompletedEntry(t *testing.T) {
	c := New(Config{MaxEntries: 1})
	k1, k2 := NewKey("c", "1"), NewKey("c", "2")
	c.Begin(k1)
	c.Complete(k1, "v1", 1)
	c.Begin(k2)
	c.Complete(k2, "v2", 1)
	// k2 just completed: it must survive, k1 must go.
	if res, _ := c.Begin(k2); res != BeginHit {
		t.Fatal("just-completed entry was evicted")
	}
	if res, _ := c.Begin(k1); res != BeginMiss {
		t.Fatal("LRU entry survived over the bound")
	}
}

// Property: with bound B, ready instances never exceed B (pending builds
// excluded), and hits+misses+coalesced accounts for every Begin.
func TestPropertyBoundedCacheInvariant(t *testing.T) {
	f := func(ops []uint8, boundRaw uint8) bool {
		bound := int(boundRaw%5) + 1
		c := New(Config{MaxEntries: bound})
		begins := uint64(0)
		for _, op := range ops {
			k := NewKey("c", fmt.Sprintf("%d", op%16))
			res, _ := c.Begin(k)
			begins++
			if res == BeginMiss {
				c.Complete(k, op, 1)
			}
			st := c.Stats()
			if st.LiveInstances > bound {
				return false
			}
			if st.Hits+st.Misses+st.Coalesced != begins {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseNotifiesPendingWaitersWithNil(t *testing.T) {
	c := New(Config{})
	key := NewKey("client", "args")
	c.Begin(key)
	var got []any
	c.Wait(key, func(v any) { got = append(got, v) })
	c.Close()
	if len(got) != 1 || got[0] != nil {
		t.Fatalf("waiters got %v, want [nil]", got)
	}
	// A Complete arriving after Close (the abandoned builder finishing)
	// must not resurrect the entry or double-notify.
	c.Complete(key, struct{}{}, 1)
	if len(got) != 1 {
		t.Fatalf("waiters notified %d times, want once", len(got))
	}
}

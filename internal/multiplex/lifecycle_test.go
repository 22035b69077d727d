package multiplex

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// closeRecorder is a cacheable instance whose OnEvict-driven close is
// observable.
type closeRecorder struct {
	name   string
	closed atomic.Int64
}

// TestExpiredEntryWithRefreshInFlightIsNotDropped locks the fix for the
// refresh/expiry race: hard TTL expiry must not drop an entry whose
// background refresh is in flight. Dropping it would start a second build
// for the same key, and the refresher's Complete would settle the wrong
// entry — publishing into (and then evicting from) a build it does not
// own.
func TestExpiredEntryWithRefreshInFlightIsNotDropped(t *testing.T) {
	clock := newTestClock(0)
	var evictedInsts []any
	c := New(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond,
		Now: clock.now, OnEvict: func(_ Key, inst any, _ int64) { evictedInsts = append(evictedInsts, inst) }})
	key := NewKey("client", "args")
	c.Begin(key)
	c.Complete(key, "v1", 5)

	clock.advance(80 * time.Millisecond)
	if res, inst := c.Begin(key); res != BeginStale || inst != "v1" {
		t.Fatalf("Begin in window = %v, %v; want stale refresher election", res, inst)
	}
	// Past hard expiry while the refresh is still in flight: the entry
	// must keep serving stale, not miss (a miss would fork a second
	// in-flight build for the key).
	clock.advance(40 * time.Millisecond)
	if res, inst := c.Begin(key); res != BeginHit || inst != "v1" {
		t.Fatalf("Begin past TTL mid-refresh = %v, %v; want hit on stale v1", res, inst)
	}
	// The refresher settles its own entry.
	c.Complete(key, "v2", 6)
	if res, inst := c.Begin(key); res != BeginHit || inst != "v2" {
		t.Fatalf("post-refresh Begin = %v, %v; want hit on v2", res, inst)
	}
	if len(evictedInsts) != 1 || evictedInsts[0] != "v1" {
		t.Fatalf("evicted = %v, want exactly [v1] (v2 must never be released)", evictedInsts)
	}
}

// TestBlockingRefreshSurvivesHardExpiry is the blocking-face regression
// for the same race: a caller arriving after hard expiry, while the
// refresh goroutine is still building, is served the stale instance and
// the refresher's replacement lands without the new instance ever being
// closed.
func TestBlockingRefreshSurvivesHardExpiry(t *testing.T) {
	clock := newTestClock(0)
	inst1 := &closeRecorder{name: "one"}
	inst2 := &closeRecorder{name: "two"}
	c := New(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond,
		Now: clock.now, OnEvict: func(_ Key, inst any, _ int64) {
			inst.(*closeRecorder).closed.Add(1)
		}})
	key := NewKey("client", "args")
	_, out, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) {
		return inst1, 5, nil
	})
	release()
	if err != nil || out != OutcomeMiss {
		t.Fatalf("seed build = %v, %v", out, err)
	}

	clock.advance(80 * time.Millisecond)
	gate := make(chan struct{})
	v, out, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) {
		<-gate
		return inst2, 6, nil
	})
	release()
	if err != nil || out != OutcomeStale || v != inst1 {
		t.Fatalf("stale get = %v, %v, %v", v, out, err)
	}
	// Hard expiry passes while the refresh is gated.
	clock.advance(40 * time.Millisecond)
	v, out, release, err = c.Acquire(context.Background(), key, nil)
	release()
	if err != nil || out != OutcomeHit || v != inst1 {
		t.Fatalf("get past TTL mid-refresh = %v, %v, %v; want stale inst1 hit", v, out, err)
	}
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, _, release, err = c.Acquire(context.Background(), key, nil)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if v == inst2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh never landed; still serving %v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if n := inst1.closed.Load(); n != 1 {
		t.Fatalf("inst1 closed %d times, want 1 (replaced by the refresh)", n)
	}
	if n := inst2.closed.Load(); n != 0 {
		t.Fatalf("inst2 closed %d times while live in the cache", n)
	}
}

// TestInvalidateDuringRefreshCondemns: invalidating an entry mid-refresh
// must not drop it (the refresher's settle would cross-talk with a new
// build). It is condemned instead: a completing refresh replaces the
// instance, a failing refresh drops the entry.
func TestInvalidateDuringRefreshCondemns(t *testing.T) {
	clock := newTestClock(0)
	var evictedInsts []any
	newCache := func() *Cache {
		evictedInsts = nil
		clock.set(0)
		c := New(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond,
			Now: clock.now, OnEvict: func(_ Key, inst any, _ int64) { evictedInsts = append(evictedInsts, inst) }})
		key := NewKey("client", "args")
		c.Begin(key)
		c.Complete(key, "v1", 5)
		clock.advance(80 * time.Millisecond)
		if res, _ := c.Begin(key); res != BeginStale {
			t.Fatal("refresher not elected")
		}
		return c
	}
	key := NewKey("client", "args")

	// Completing refresh: the condemned instance is replaced.
	c := newCache()
	if !c.Invalidate(key) {
		t.Fatal("invalidate mid-refresh should report true (condemned)")
	}
	if res, inst := c.Begin(key); res != BeginHit || inst != "v1" {
		t.Fatalf("condemned entry = %v, %v; must keep serving until the refresh settles", res, inst)
	}
	c.Complete(key, "v2", 6)
	if res, inst := c.Begin(key); res != BeginHit || inst != "v2" {
		t.Fatalf("post-refresh = %v, %v; want v2", res, inst)
	}
	if len(evictedInsts) != 1 || evictedInsts[0] != "v1" {
		t.Fatalf("evicted = %v, want [v1]", evictedInsts)
	}

	// Failing refresh: the condemned entry is dropped, not pinned stale.
	c = newCache()
	c.Invalidate(key)
	c.Fail(key)
	if len(evictedInsts) != 1 || evictedInsts[0] != "v1" {
		t.Fatalf("evicted after failed refresh = %v, want [v1]", evictedInsts)
	}
	if res, _ := c.Begin(key); res != BeginMiss {
		t.Fatal("condemned entry must rebuild after a failed refresh")
	}
}

// TestRefreshPanicIsRecoveredAndFailsEntry: a panicking constructor in
// the background refresh goroutine must not crash the process or pin the
// entry refreshing forever — it settles as a failed refresh and the
// stale instance keeps serving until hard expiry.
func TestRefreshPanicIsRecoveredAndFailsEntry(t *testing.T) {
	clock := newTestClock(0)
	c := New(Config{Shards: 1, TTL: 100 * time.Millisecond, RefreshWindow: 30 * time.Millisecond, Now: clock.now})
	key := NewKey("client", "args")
	_, _, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) {
		return "v1", 5, nil
	})
	release()
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(80 * time.Millisecond)
	v, out, release, err := c.Acquire(context.Background(), key, func() (any, int64, error) {
		panic("constructor exploded")
	})
	release()
	if err != nil || out != OutcomeStale || v != "v1" {
		t.Fatalf("stale get = %v, %v, %v", v, out, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().BuildFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panicking refresh never settled as a failure")
		}
		time.Sleep(time.Millisecond)
	}
	// The entry survived and is refreshable again (refreshing cleared).
	if res, inst := c.Begin(key); res != BeginStale || inst != "v1" {
		t.Fatalf("post-panic Begin = %v, %v; want a new stale refresh attempt on v1", res, inst)
	}
}

// TestBuildPanicFailsPendingEntry: a panicking constructor on the miss
// path re-raises to its caller, but first settles the pending entry so
// the key is not poisoned — coalesced waiters wake and the next caller
// rebuilds instead of blocking forever.
func TestBuildPanicFailsPendingEntry(t *testing.T) {
	c := New(Config{Shards: 1})
	key := NewKey("client", "args")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the building caller")
			}
		}()
		_, _, release, _ := c.Acquire(context.Background(), key, func() (any, int64, error) {
			panic("constructor exploded")
		})
		release()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, out, release, err := c.Acquire(ctx, key, func() (any, int64, error) {
		return "rebuilt", 1, nil
	})
	release()
	if err != nil || out != OutcomeMiss || v != "rebuilt" {
		t.Fatalf("post-panic get = %v, %v, %v; want a fresh miss (key not poisoned)", v, out, err)
	}
	if st := c.Stats(); st.BuildFailures != 1 {
		t.Fatalf("BuildFailures = %d, want 1 for the panicked build", st.BuildFailures)
	}
}

// TestAcquireDefersEvictionUntilRelease: an instance lent out by Acquire
// may be evicted from the cache, but its OnEvict (the platform's closer)
// must wait for the borrower's release.
func TestAcquireDefersEvictionUntilRelease(t *testing.T) {
	inst := &closeRecorder{name: "borrowed"}
	c := New(Config{Shards: 1, MaxEntries: 1, OnEvict: func(_ Key, v any, _ int64) {
		if r, ok := v.(*closeRecorder); ok {
			r.closed.Add(1)
		}
	}})
	keyA, keyB := NewKey("client", "a"), NewKey("client", "b")
	v, out, release, err := c.Acquire(context.Background(), keyA, func() (any, int64, error) {
		return inst, 4, nil
	})
	if err != nil || out != OutcomeMiss || v != inst {
		t.Fatalf("acquire = %v, %v, %v", v, out, err)
	}
	// Overflow the 1-entry cache: A is evicted while still borrowed.
	_, _, releaseB, err := c.Acquire(context.Background(), keyB, func() (any, int64, error) {
		return "other", 1, nil
	})
	releaseB()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1 (A left the cache)", st.Evictions)
	}
	if n := inst.closed.Load(); n != 0 {
		t.Fatalf("borrowed instance closed %d times before release", n)
	}
	release()
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("released instance closed %d times, want 1", n)
	}
	release() // idempotent
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("double release re-closed: %d", n)
	}
}

// TestAcquireSharedBorrowLastReleaseCloses: several concurrent borrowers
// of the same instance — the eviction close fires only when the last one
// releases.
func TestAcquireSharedBorrowLastReleaseCloses(t *testing.T) {
	inst := &closeRecorder{name: "shared"}
	c := New(Config{Shards: 1, OnEvict: func(_ Key, v any, _ int64) {
		if r, ok := v.(*closeRecorder); ok {
			r.closed.Add(1)
		}
	}})
	key := NewKey("client", "args")
	build := func() (any, int64, error) { return inst, 4, nil }
	_, _, rel1, err := c.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rel2, err := c.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(key)
	rel1()
	if n := inst.closed.Load(); n != 0 {
		t.Fatalf("closed after first of two releases: %d", n)
	}
	rel2()
	if n := inst.closed.Load(); n != 1 {
		t.Fatalf("closed %d times after last release, want 1", n)
	}
}

// TestMaxEntriesSplitsExactly: the per-shard capacity split must not
// silently drop the MaxEntries % Shards remainder.
func TestMaxEntriesSplitsExactly(t *testing.T) {
	cases := []struct{ shards, max int }{
		{4, 10}, {8, 100}, {2, 3}, {16, 17}, {1, 7},
	}
	for _, tc := range cases {
		c := New(Config{Shards: tc.shards, MaxEntries: tc.max})
		sum := 0
		for _, sh := range c.shards {
			sum += sh.cap
		}
		if sum != tc.max {
			t.Errorf("shards=%d max=%d: caps sum to %d, want %d", tc.shards, tc.max, sum, tc.max)
		}
	}
	// Auto-sized shard counts shrink when the capacity cannot feed every
	// shard a few slots, instead of spreading 1-slot shards that thrash
	// under skew.
	if n := New(Config{MaxEntries: 8}).Stats().Shards; n != 2 {
		t.Errorf("auto shards with MaxEntries 8 = %d, want 2", n)
	}
	if n := New(Config{MaxEntries: 100}).Stats().Shards; n > 16 {
		t.Errorf("auto shards with MaxEntries 100 = %d, want <= 16", n)
	}
}

// TestPropertyInflightRefreshNeverEvicted extends the eviction property
// to refreshes: across TTL churn, an elected refresher's Complete always
// publishes to its own entry — the value observed after settling is the
// refresher's, and the pre-refresh instance is released exactly once.
func TestPropertyInflightRefreshNeverEvicted(t *testing.T) {
	clock := newTestClock(0)
	released := map[any]int{}
	c := New(Config{Shards: 1, MaxEntries: 2, TTL: 100 * time.Millisecond,
		RefreshWindow: 30 * time.Millisecond, Now: clock.now,
		OnEvict: func(_ Key, inst any, _ int64) { released[inst]++ }})
	key := NewKey("client", "hot")
	c.Begin(key)
	c.Complete(key, "gen-0", 1)
	for gen := 1; gen <= 20; gen++ {
		clock.advance(80 * time.Millisecond) // into the refresh window
		res, _ := c.Begin(key)
		if res != BeginStale {
			t.Fatalf("gen %d: Begin = %v, want stale election", gen, res)
		}
		// Cross-pressure while the refresh is in flight: expiry-time
		// lookups, invalidations and capacity churn must not detach the
		// refresher from its entry.
		clock.advance(40 * time.Millisecond) // past hard TTL
		if res, _ := c.Begin(key); res != BeginHit {
			t.Fatalf("gen %d: expired mid-refresh lookup = %v, want stale hit", gen, res)
		}
		other := NewKey("client", fmt.Sprintf("churn-%d", gen))
		c.Begin(other)
		c.Complete(other, gen, 1)
		v := fmt.Sprintf("gen-%d", gen)
		c.Complete(key, v, 1)
		if res, inst := c.Begin(key); res != BeginHit || inst != v {
			t.Fatalf("gen %d: settled value = %v, %v; want %s", gen, res, inst, v)
		}
	}
	for inst, n := range released {
		if n != 1 {
			t.Fatalf("instance %v released %d times", inst, n)
		}
	}
	if n := released["gen-20"]; n != 0 {
		t.Fatal("live generation must not have been released")
	}
}

// TestAcquireClosedCache keeps the typed-error contract on the borrowing
// face and proves the release func of an error outcome is safe to call.
func TestAcquireClosedCache(t *testing.T) {
	c := New(Config{})
	c.Close()
	_, out, release, err := c.Acquire(context.Background(), NewKey("c", "a"),
		func() (any, int64, error) { return "v", 1, nil })
	if out != OutcomeError || !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("closed acquire = %v, %v", out, err)
	}
	release()
	release()
}

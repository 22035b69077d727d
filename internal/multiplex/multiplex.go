// Package multiplex implements the paper's Resource Multiplexer (§III-D):
// a per-container resource-args-result cache that intercepts resource
// creation calls (e.g. building an S3 client), keys them by the callee and
// a hash of the creation arguments, and serves repeated creations from the
// cache instead of constructing duplicate instances.
//
// The v2 cache is production-grade concurrent state:
//
//   - Lock striping: entries spread over a power-of-two number of shards
//     keyed by a finalised hash of the Key, so concurrent creations on
//     different keys never contend on one mutex.
//   - Bounded capacity: per-shard LRU lists bound the ready instances
//     (Config.MaxEntries split across shards) and Config.TTL expires
//     entries by age; every instance leaving the cache passes through the
//     OnEvict closer hook so evicted clients can release sockets.
//   - Failure awareness: a failed build can be remembered as a negative
//     entry (Config.NegativeBackoff) that denies rebuild stampedes with
//     exponential backoff, and Invalidate lets handler feedback drop an
//     instance that started erroring.
//   - Stale-while-revalidate: a hit inside Config.RefreshWindow of expiry
//     serves the current instance immediately while exactly one caller
//     refreshes it in the background.
//
// The cache exposes two faces over one store:
//
//   - An event-driven face (Begin / Wait / Complete / Fail) used by the
//     discrete-event simulator, where "building" takes virtual time and
//     concurrent requesters for the same key coalesce onto the first
//     build.
//   - A blocking face (Acquire) used by the live platform, where the
//     build runs real code and concurrent goroutines coalesce
//     singleflight-style. Acquire also lends the instance to the caller:
//     evictions of a lent instance defer the OnEvict hook until its
//     release, so in-use clients are never closed mid-request.
package multiplex

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"faasbatch/internal/hashmix"
)

// Key identifies a resource creation: the intercepted callee plus the
// hashed creation arguments. The paper hashes arguments to bound memory
// and speed up matching; collisions are ignored as negligibly likely at
// container scope (§III-D).
type Key struct {
	// Callee is the creation call, e.g. "boto3.client".
	Callee string
	// ArgsHash is the hash of the creation arguments.
	ArgsHash uint64
}

// HashArgs hashes creation arguments with FNV-1a.
func HashArgs(args string) uint64 { return hashmix.FNV64a(args) }

// NewKey builds a Key from a callee and raw argument string.
func NewKey(callee, args string) Key {
	return Key{Callee: callee, ArgsHash: HashArgs(args)}
}

// shardHash mixes a Key into a well-distributed 64-bit value for shard
// selection: FNV-1a over the callee, xor the args hash, then the shared
// splitmix64 finalisation (internal/hashmix) so map-adjacent keys land on
// distant shards.
func shardHash(k Key) uint64 {
	return hashmix.Mix64(hashmix.FNV64a(k.Callee) ^ k.ArgsHash)
}

// Typed errors returned by the blocking face.
var (
	// ErrBuildFailed marks an error caused by a failed resource build —
	// either this caller's own build or a remembered failure served from
	// the negative cache. errors.Is(err, ErrBuildFailed) matches, and the
	// underlying constructor error remains reachable via errors.Is/As.
	ErrBuildFailed = errors.New("multiplex: resource build failed")
	// ErrCacheClosed reports an Acquire call against a closed
	// cache (its container was torn down).
	ErrCacheClosed = errors.New("multiplex: cache closed")
)

// buildError wraps a constructor failure so callers can match both
// ErrBuildFailed and the original cause.
type buildError struct {
	key   Key
	cause error
}

// Error implements error.
func (e *buildError) Error() string {
	return fmt.Sprintf("multiplex: build %s: %v", e.key.Callee, e.cause)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *buildError) Unwrap() []error { return []error{ErrBuildFailed, e.cause} }

// Outcome classifies how one blocking-face creation was served.
type Outcome int

// Outcomes of Acquire.
const (
	// OutcomeMiss means this caller built the instance.
	OutcomeMiss Outcome = iota + 1
	// OutcomeHit means a ready instance was served.
	OutcomeHit
	// OutcomeCoalesced means the caller waited on another caller's build.
	OutcomeCoalesced
	// OutcomeStale means a near-expiry instance was served immediately
	// while this call triggered a background refresh.
	OutcomeStale
	// OutcomeNegative means the creation was denied by the negative cache
	// (a recent build failed and its backoff has not elapsed).
	OutcomeNegative
	// OutcomeError means the creation failed (build error, cache closed,
	// or context cancellation).
	OutcomeError
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeStale:
		return "stale"
	case OutcomeNegative:
		return "negative"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Cached reports whether the outcome avoided a synchronous build.
func (o Outcome) Cached() bool {
	return o == OutcomeHit || o == OutcomeCoalesced || o == OutcomeStale
}

// BeginResult reports the cache state encountered by Begin.
type BeginResult int

// Begin outcomes.
const (
	// BeginHit means a ready instance was returned.
	BeginHit BeginResult = iota + 1
	// BeginMiss means the caller is now the builder and must call
	// Complete or Fail.
	BeginMiss
	// BeginPending means another caller is building; register interest
	// with Wait.
	BeginPending
	// BeginStale means a ready instance inside the refresh window was
	// returned AND the caller became the refresher: it must rebuild and
	// finish with Complete (replacing the instance) or Fail (keeping the
	// stale one until hard expiry).
	BeginStale
	// BeginNegative means the key's last build failed recently and its
	// backoff has not elapsed; the creation is denied without building.
	BeginNegative
)

// String implements fmt.Stringer.
func (r BeginResult) String() string {
	switch r {
	case BeginHit:
		return "hit"
	case BeginMiss:
		return "miss"
	case BeginPending:
		return "pending"
	case BeginStale:
		return "stale"
	case BeginNegative:
		return "negative"
	default:
		return fmt.Sprintf("begin(%d)", int(r))
	}
}

// Stats summarises cache effectiveness.
type Stats struct {
	// Hits counts creations served from a ready instance.
	Hits uint64
	// Coalesced counts creations that waited on an in-flight build.
	Coalesced uint64
	// Misses counts actual builds started.
	Misses uint64
	// StaleHits counts creations served a near-expiry instance while a
	// refresh was triggered.
	StaleHits uint64
	// Refreshes counts stale-while-revalidate rebuilds started.
	Refreshes uint64
	// NegativeHits counts creations denied by the negative cache.
	NegativeHits uint64
	// BuildFailures counts builds that finished with an error.
	BuildFailures uint64
	// Invalidations counts entries dropped by handler feedback.
	Invalidations uint64
	// LiveInstances is the number of ready instances held.
	LiveInstances int
	// BytesLive is the memory held by ready instances.
	BytesLive int64
	// BytesSaved is the duplicate memory avoided: the instance size for
	// each hit, stale hit or coalesced creation.
	BytesSaved int64
	// Evictions counts instances dropped by the LRU capacity bound.
	Evictions uint64
	// Expired counts instances dropped by the TTL.
	Expired uint64
	// Shards is the number of lock-striped shards.
	Shards int
	// MaxShardOccupancy is the largest ready-instance count held by any
	// one shard (a skew indicator: compare against LiveInstances/Shards).
	MaxShardOccupancy int
}

// Add folds another snapshot into s: counters and live gauges sum, shard
// gauges aggregate (Shards sums across caches, MaxShardOccupancy takes the
// max), so a platform can aggregate per-container caches into one view.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Coalesced += o.Coalesced
	s.Misses += o.Misses
	s.StaleHits += o.StaleHits
	s.Refreshes += o.Refreshes
	s.NegativeHits += o.NegativeHits
	s.BuildFailures += o.BuildFailures
	s.Invalidations += o.Invalidations
	s.LiveInstances += o.LiveInstances
	s.BytesLive += o.BytesLive
	s.BytesSaved += o.BytesSaved
	s.Evictions += o.Evictions
	s.Expired += o.Expired
	s.Shards += o.Shards
	if o.MaxShardOccupancy > s.MaxShardOccupancy {
		s.MaxShardOccupancy = o.MaxShardOccupancy
	}
}

// Config parameterises a Cache. The zero value is the paper's seed cache:
// unbounded, immortal entries, no failure memory, auto-sized shards.
type Config struct {
	// Shards is the number of lock stripes, rounded up to a power of two.
	// Zero picks an automatic size from GOMAXPROCS. When MaxEntries > 0
	// the count is clamped so every shard owns at least one slot.
	Shards int
	// MaxEntries bounds the ready instances held across all shards. The
	// capacity splits per shard (remainder slots distributed so the shard
	// caps sum to exactly MaxEntries) and each shard evicts its least-
	// recently-used ready instance on overflow. Because the bound is
	// enforced per shard, a heavily skewed key population can see
	// evictions while total occupancy is still below MaxEntries; with
	// auto-sized Shards the shard count shrinks until every shard owns at
	// least a few slots to keep that skew effect small. Zero or negative
	// means unbounded (the paper's container-scoped cache, whose lifetime
	// bounds it naturally).
	MaxEntries int
	// TTL expires a ready instance this long after it was (re)built.
	// Expiry is lazy: an expired entry is dropped (through OnEvict) when
	// next touched. Zero means immortal entries.
	TTL time.Duration
	// RefreshWindow enables stale-while-revalidate: a lookup landing
	// within this window before expiry is served the current instance
	// immediately while one caller rebuilds in the background. Zero
	// disables background refresh. Requires TTL > 0.
	RefreshWindow time.Duration
	// NegativeBackoff enables negative caching: after a build fails, the
	// key denies creations (BeginNegative / OutcomeNegative) for this long,
	// doubling on every further consecutive failure up to
	// NegativeBackoffMax. Zero disables failure memory — a failed build is
	// forgotten immediately, as in the seed cache.
	NegativeBackoff time.Duration
	// NegativeBackoffMax caps the exponential backoff. Zero defaults to
	// 32× NegativeBackoff.
	NegativeBackoffMax time.Duration
	// Now is the cache's monotonic clock, used for TTL and backoff
	// arithmetic. Nil defaults to wall time; the simulator injects virtual
	// time so eviction and refresh land deterministically.
	Now func() time.Duration
	// OnEvict is the entry-lifecycle closer hook: it runs (outside the
	// shard lock) for every instance that leaves the cache — LRU eviction,
	// TTL expiry, refresh replacement, Invalidate and Close — so evicted
	// clients can release sockets or return memory to a ledger.
	OnEvict func(Key, any, int64)
}

// Cache is one container's Resource Multiplexer.
//
// The zero value is not usable; create caches with New.
type Cache struct {
	cfg    Config
	shards []*shard
	mask   uint64
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates an empty cache from cfg.
func New(cfg Config) *Cache {
	n := cfg.Shards
	auto := n <= 0
	if auto {
		// Auto: enough stripes that GOMAXPROCS goroutines rarely collide.
		n = 2 * runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
		if n > 256 {
			n = 256
		}
	}
	n = nextPow2(n)
	if cfg.MaxEntries > 0 {
		if auto {
			// Auto sizing also respects the capacity: fewer, deeper shards
			// beat many 1-slot shards, which thrash under key skew (two hot
			// keys colliding in a 1-slot shard evict each other forever).
			for n > 1 && cfg.MaxEntries/n < 4 {
				n >>= 1
			}
		}
		// Every shard must own at least one slot, or the capacity split
		// would round a shard's bound to zero and evict everything it
		// completes.
		for n > 1 && cfg.MaxEntries/n < 1 {
			n >>= 1
		}
	}
	if cfg.NegativeBackoff > 0 && cfg.NegativeBackoffMax <= 0 {
		cfg.NegativeBackoffMax = 32 * cfg.NegativeBackoff
	}
	if cfg.Now == nil {
		base := time.Now()
		cfg.Now = func() time.Duration { return time.Since(base) }
	}
	c := &Cache{cfg: cfg, mask: uint64(n - 1)}
	// The capacity splits across shards with the remainder distributed one
	// slot at a time, so the shard caps sum to exactly MaxEntries.
	base, rem := 0, 0
	if cfg.MaxEntries > 0 {
		base, rem = cfg.MaxEntries/n, cfg.MaxEntries%n
	}
	c.shards = make([]*shard, n)
	for i := range c.shards {
		capacity := base
		if i < rem {
			capacity++
		}
		c.shards[i] = &shard{cache: c, cap: capacity, entries: make(map[Key]*entry)}
	}
	return c
}

// shardFor picks the shard owning key.
func (c *Cache) shardFor(key Key) *shard {
	return c.shards[shardHash(key)&c.mask]
}

// Begin looks up key. On BeginHit the ready instance is returned. On
// BeginMiss the caller becomes the builder and must finish with Complete
// or Fail. On BeginPending the caller should register a Wait callback. On
// BeginStale the instance is returned AND the caller became the
// background refresher (finish with Complete or Fail). On BeginNegative
// the creation is denied by the negative cache.
//
// On a closed cache Begin reports BeginMiss without becoming a builder:
// the subsequent Complete is a no-op (releasing the instance through
// OnEvict), so sim callers terminate cleanly during teardown.
func (c *Cache) Begin(key Key) (BeginResult, any) {
	return c.shardFor(key).begin(key)
}

// Wait registers fn to run when the pending build for key finishes. fn
// receives the built instance, or nil if the build failed (the caller
// should then retry Begin). If the key is already ready or absent, fn runs
// immediately with the current instance (nil when absent).
func (c *Cache) Wait(key Key, fn func(any)) {
	c.shardFor(key).wait(key, fn)
}

// Complete publishes the built instance for key and notifies waiters.
// Waiters count toward BytesSaved: each avoided building a duplicate.
// Completing a refresh (after BeginStale) replaces the stale instance,
// releasing it through OnEvict. Completing a key the cache no longer
// tracks (failed, invalidated or closed meanwhile) releases the instance
// through OnEvict instead of storing it.
func (c *Cache) Complete(key Key, instance any, bytes int64) {
	c.shardFor(key).complete(key, instance, bytes)
}

// Fail abandons a pending build: waiters are notified with nil. With
// negative caching enabled the key is remembered as failing and denies
// creations until its backoff elapses; otherwise the entry is removed so
// the next Begin retries. Failing a refresh keeps the stale instance until
// hard expiry.
func (c *Cache) Fail(key Key) { c.FailErr(key, nil) }

// FailErr is Fail carrying the build error, which the negative cache
// serves to denied callers (Acquire wraps it with ErrBuildFailed).
func (c *Cache) FailErr(key Key, cause error) {
	c.shardFor(key).fail(key, cause)
}

// Invalidate drops the ready or negative entry for key — handler feedback
// for an instance that started erroring (the paper's multiplexer trusts
// instances forever; production clients go bad). A ready instance is
// released through OnEvict. Pending builds are untouched. An entry whose
// background refresh is in flight is condemned rather than dropped (so
// the refresher's Complete/Fail still find it): a completing refresh
// replaces the condemned instance, a failing one drops the entry. It
// reports whether an entry was dropped or condemned.
func (c *Cache) Invalidate(key Key) bool {
	return c.shardFor(key).invalidate(key)
}

// ReleaseFunc returns a borrowed instance to the cache's lifecycle
// management. It is idempotent and never nil.
type ReleaseFunc func()

// releaseNop is the shared release for un-tracked borrows (no OnEvict
// hook, non-comparable instance, or no instance at all).
var releaseNop ReleaseFunc = func() {}

// releaser wraps one loan of inst in an idempotent ReleaseFunc.
func (c *Cache) releaser(sh *shard, inst any) ReleaseFunc {
	if !sh.trackBorrows(inst) {
		return releaseNop
	}
	var once sync.Once
	return func() { once.Do(func() { sh.release(inst) }) }
}

// runBuild invokes a caller-supplied constructor for key. A panicking
// constructor fails the in-flight build first — waking coalesced waiters
// and arming the negative cache instead of leaving a pending entry that
// deadlocks every later caller — and then re-raises.
func runBuild(sh *shard, key Key, build func() (any, int64, error)) (v any, bytes int64, err error) {
	returned := false
	defer func() {
		if !returned {
			sh.fail(key, fmt.Errorf("multiplex: build %s panicked", key.Callee))
		}
	}()
	v, bytes, err = build()
	returned = true
	return v, bytes, err
}

// Acquire is the blocking face used by the live platform: it returns the
// cached instance for key, or runs build exactly once per miss while
// concurrent callers wait (singleflight). The Outcome classifies how the
// creation was served; on OutcomeStale the instance returns immediately
// while build runs in the background (a panicking refresh is recovered
// and recorded as a failed build). Errors are typed: ErrBuildFailed (own
// build or negative-cache denial, with the constructor's error in the
// chain), ErrCacheClosed, or the context's error when ctx ends while
// coalesced on another caller's build.
//
// The returned ReleaseFunc marks the end of the caller's use of the
// instance: until it runs, any eviction of the instance (LRU overflow,
// TTL expiry, refresh replacement, Invalidate, Close) defers the OnEvict
// hook, so a cached client is never closed out from under a caller
// mid-use. It is never nil, idempotent, and must be called exactly once
// — a forgotten release pins an evicted instance's OnEvict forever.
func (c *Cache) Acquire(ctx context.Context, key Key, build func() (any, int64, error)) (any, Outcome, ReleaseFunc, error) {
	sh := c.shardFor(key)
	for {
		res, inst, done, lastErr, closed := sh.beginBlocking(key, true)
		if closed {
			return nil, OutcomeError, releaseNop, fmt.Errorf("multiplex: get %s: %w", key.Callee, ErrCacheClosed)
		}
		switch res {
		case BeginHit:
			return inst, OutcomeHit, c.releaser(sh, inst), nil
		case BeginStale:
			// This caller owns the refresh; serve stale now, rebuild in the
			// background. The goroutine must always settle the entry: a
			// panic in the constructor is recovered into a failed refresh
			// so the entry is not pinned refreshing forever.
			go func() {
				defer func() {
					if r := recover(); r != nil {
						sh.fail(key, fmt.Errorf("multiplex: refresh %s panicked: %v", key.Callee, r))
					}
				}()
				v, bytes, err := build()
				if err != nil {
					sh.fail(key, err)
					return
				}
				sh.complete(key, v, bytes)
			}()
			return inst, OutcomeStale, c.releaser(sh, inst), nil
		case BeginNegative:
			return nil, OutcomeNegative, releaseNop, &buildError{key: key, cause: negativeCause(lastErr)}
		case BeginMiss:
			v, bytes, err := runBuild(sh, key, build)
			if err != nil {
				sh.fail(key, err)
				return nil, OutcomeError, releaseNop, &buildError{key: key, cause: err}
			}
			// Register the loan before publishing: once complete runs the
			// instance is evictable (and the duplicate/orphan paths inside
			// complete release through OnEvict), but this caller is about
			// to return it.
			sh.borrow(v)
			sh.complete(key, v, bytes)
			return v, OutcomeMiss, c.releaser(sh, v), nil
		default: // BeginPending: coalesce onto the in-flight build.
			select {
			case <-done:
			case <-ctx.Done():
				return nil, OutcomeError, releaseNop, fmt.Errorf("multiplex: wait for %s: %w", key.Callee, ctx.Err())
			}
			if v, ok := sh.readyValue(key, true); ok {
				return v, OutcomeCoalesced, c.releaser(sh, v), nil
			}
			// The build failed; loop — the negative cache denies, or this
			// caller becomes the builder.
		}
	}
}

// negativeCause normalises a negative entry's stored error (Fail without a
// cause stores nil).
func negativeCause(err error) error {
	if err != nil {
		return err
	}
	return errors.New("previous build failed")
}

// Stats returns an aggregated snapshot of the cache statistics.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s := sh.stats
		s.LiveInstances = sh.ready
		s.BytesLive = sh.bytesLive
		if sh.ready > st.MaxShardOccupancy {
			st.MaxShardOccupancy = sh.ready
		}
		sh.mu.Unlock()
		st.Hits += s.Hits
		st.Coalesced += s.Coalesced
		st.Misses += s.Misses
		st.StaleHits += s.StaleHits
		st.Refreshes += s.Refreshes
		st.NegativeHits += s.NegativeHits
		st.BuildFailures += s.BuildFailures
		st.Invalidations += s.Invalidations
		st.LiveInstances += s.LiveInstances
		st.BytesLive += s.BytesLive
		st.BytesSaved += s.BytesSaved
		st.Evictions += s.Evictions
		st.Expired += s.Expired
	}
	st.Shards = len(c.shards)
	return st
}

// Close drops every entry — releasing ready instances through OnEvict and
// waking pending waiters with nil, so coalesced invocations are never
// stranded by a container teardown — and reports the bytes that were live
// (so the teardown can return them to the node's memory ledger). After
// Close, Acquire reports ErrCacheClosed and the event-driven
// face stops storing instances. Close is idempotent.
func (c *Cache) Close() int64 {
	var freed int64
	for _, sh := range c.shards {
		freed += sh.close()
	}
	return freed
}

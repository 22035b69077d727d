package node

import (
	"fmt"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/sim"
)

// AcquireOptions configures container acquisition.
type AcquireOptions struct {
	// CPULimit is the cpuset cap for a newly created container
	// (<= 0 means unlimited). Ignored on a warm hit, matching docker's
	// behaviour of fixing limits at creation.
	CPULimit float64
	// Multiplex equips a newly created container with a Resource
	// Multiplexer cache.
	Multiplex bool
	// Multiplexer tunes the container's cache (shards, capacity, TTL,
	// refresh window, negative backoff). The zero value takes the cache
	// defaults. The node always overrides the clock with the engine's
	// virtual time and layers instance-memory release on OnEvict, so
	// evicted and refreshed instances return their bytes to the ledger.
	Multiplexer multiplex.Config
}

// AcquireResult reports how a container was obtained.
type AcquireResult struct {
	// Container is the acquired container, already checked out as busy
	// for the caller's bookkeeping to fill.
	Container *Container
	// Cold reports whether a new container had to be created.
	Cold bool
	// QueueWait is the time spent waiting for a container-engine slot
	// (part of scheduling latency).
	QueueWait time.Duration
	// BootTime is the container boot duration (the cold-start latency;
	// zero on a warm start).
	BootTime time.Duration
}

// createReq is a queued container creation.
type createReq struct {
	fn       string
	opts     AcquireOptions
	cb       func(AcquireResult)
	enqueued sim.Time
}

// Node is the worker VM.
type Node struct {
	eng  *sim.Engine
	cfg  Config
	pool *cpusched.Pool
	// sysGroup hosts container-engine CPU work (creation): it contends
	// with function execution, uncapped like the dockerd process.
	sysGroup *cpusched.Group

	memUsed int64
	memPeak int64

	warm map[string][]*Container
	live int

	createQueue    []*createReq
	createInflight int

	seq                  int
	totalCreated         int
	coldStarts           int
	warmStarts           int
	evictions            int
	bootFailures         int
	crashes              int
	slowBoots            int
	clientBytesAllocated int64

	// liveIntegral accumulates container-seconds of live containers, used
	// to charge per-container background CPU.
	liveIntegral   float64
	lastLiveChange sim.Time
}

// New creates a worker node. The zero-value fields of cfg are not
// defaulted; use DefaultConfig as the base.
func New(eng *sim.Engine, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool, err := cpusched.NewPool(eng, cfg.Cores, cfg.Discipline)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		eng:  eng,
		cfg:  cfg,
		pool: pool,
		warm: make(map[string][]*Container),
	}
	n.sysGroup = pool.NewGroup("engine", 0)
	return n, nil
}

// Config reports the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Pool exposes the CPU pool (for the resource sampler's busy integral).
func (n *Node) Pool() *cpusched.Pool { return n.pool }

// MemUsed reports current memory usage, including the constant platform
// base.
func (n *Node) MemUsed() int64 { return n.cfg.BaseMemBytes + n.memUsed }

// MemPeak reports the peak memory usage observed, including the constant
// platform base.
func (n *Node) MemPeak() int64 { return n.cfg.BaseMemBytes + n.memPeak }

// LiveContainers reports containers that are starting, idle or busy.
func (n *Node) LiveContainers() int { return n.live }

// TotalCreated reports the number of containers provisioned so far — the
// paper's "number of provisioned containers" metric.
func (n *Node) TotalCreated() int { return n.totalCreated }

// ColdStarts reports acquisition requests served by creating a container.
func (n *Node) ColdStarts() int { return n.coldStarts }

// WarmStarts reports acquisition requests served from the warm pool.
func (n *Node) WarmStarts() int { return n.warmStarts }

// Evictions reports keep-alive evictions performed.
func (n *Node) Evictions() int { return n.evictions }

// BootFailures reports container boots that failed and were retried.
func (n *Node) BootFailures() int { return n.bootFailures }

// Crashes reports containers killed by fault injection.
func (n *Node) Crashes() int { return n.crashes }

// SlowBoots reports boots whose latency was inflated by fault injection.
func (n *Node) SlowBoots() int { return n.slowBoots }

// ClientBytesAllocated reports cumulative client-instance memory charged
// (the Fig. 14d numerator).
func (n *Node) ClientBytesAllocated() int64 { return n.clientBytesAllocated }

// PendingCreations reports queued plus in-flight container creations.
func (n *Node) PendingCreations() int { return len(n.createQueue) + n.createInflight }

// advanceLiveIntegral folds the elapsed live-container time into the
// integral before the live count changes.
func (n *Node) advanceLiveIntegral() {
	now := n.eng.Now()
	n.liveIntegral += float64(n.live) * now.Sub(n.lastLiveChange).Seconds()
	n.lastLiveChange = now
}

// LiveContainerSeconds reports the integral of live containers over time
// (container-seconds). Multiplied by Config.ContainerIdleCPU it yields the
// background CPU charge of running containers.
func (n *Node) LiveContainerSeconds() float64 {
	n.advanceLiveIntegral()
	return n.liveIntegral
}

// BusyCoreSeconds reports total CPU consumption including the background
// charge of live containers — the quantity the once-per-second resource
// sampler records.
func (n *Node) BusyCoreSeconds() float64 {
	return n.pool.BusyCoreSeconds() + n.LiveContainerSeconds()*n.cfg.ContainerIdleCPU
}

func (n *Node) allocMem(bytes int64) {
	n.memUsed += bytes
	if n.memUsed > n.memPeak {
		n.memPeak = n.memUsed
	}
}

func (n *Node) freeMem(bytes int64) {
	n.memUsed -= bytes
	if n.memUsed < 0 {
		n.memUsed = 0
	}
}

// Acquire obtains a container for fn: a warm keep-alive container when one
// is idle, otherwise a fresh container through the engine's creation
// pipeline. cb runs (in virtual time) once the container is ready; the
// container is handed over in the Busy state with one thread checked out.
func (n *Node) Acquire(fn string, opts AcquireOptions, cb func(AcquireResult)) {
	if list := n.warm[fn]; len(list) > 0 {
		c := list[len(list)-1]
		n.warm[fn] = list[:len(list)-1]
		c.idleEpoch++ // invalidate the pending keep-alive timer
		c.CheckoutThread()
		n.warmStarts++
		cb(AcquireResult{Container: c})
		return
	}
	n.coldStarts++
	n.createQueue = append(n.createQueue, &createReq{
		fn:       fn,
		opts:     opts,
		cb:       cb,
		enqueued: n.eng.Now(),
	})
	n.pumpCreations()
}

// pumpCreations starts queued creations while engine slots are free and,
// under EnforceMemLimit, while the node has memory headroom for the new
// container's base footprint.
func (n *Node) pumpCreations() {
	for n.createInflight < n.cfg.CreateConcurrency && len(n.createQueue) > 0 {
		if n.cfg.EnforceMemLimit && n.MemUsed()+n.cfg.ContainerMem > n.cfg.MemBytes {
			return // head-of-line blocks until an eviction frees memory
		}
		req := n.createQueue[0]
		n.createQueue = n.createQueue[1:]
		n.createInflight++
		n.startCreation(req)
	}
}

// startCreation runs one container creation: CPU work on the engine group
// followed by the fixed boot latency.
func (n *Node) startCreation(req *createReq) {
	queueWait := n.eng.Now().Sub(req.enqueued)
	bootStart := n.eng.Now()
	n.seq++
	c := &Container{
		node:  n,
		id:    fmt.Sprintf("c%04d-%s", n.seq, req.fn),
		fn:    req.fn,
		state: Starting,
	}
	n.advanceLiveIntegral()
	n.live++
	n.totalCreated++
	n.allocMem(n.cfg.ContainerMem)

	ready := func() {
		failed := n.cfg.BootFailureRate > 0 && n.eng.Rand().Float64() < n.cfg.BootFailureRate
		if !failed && n.cfg.Chaos.Should(chaos.BootFailure) {
			failed = true
		}
		if failed {
			// The boot failed after its init phase: tear the carcass
			// down and retry the creation. The caller's wait so far is
			// preserved in the request's enqueue time, so the eventual
			// success reports the full queue delay.
			n.bootFailures++
			n.teardown(c)
			n.createQueue = append(n.createQueue, req)
			n.pumpCreations()
			return
		}
		if req.opts.Multiplex {
			c.cache = multiplex.New(n.containerCacheConfig(c, req.opts.Multiplexer))
		} else {
			c.cacheDisabled = true
		}
		c.CheckoutThread()
		req.cb(AcquireResult{
			Container: c,
			Cold:      true,
			QueueWait: queueWait,
			BootTime:  n.eng.Now().Sub(bootStart),
		})
	}

	n.sysGroup.Submit(n.cfg.CreateCPUWork, func() {
		// The engine slot frees once the CPU-bound part completes; the
		// remaining boot latency (image setup) overlaps with other
		// creations.
		n.createInflight--
		n.pumpCreations()
		bootLatency := n.cfg.ColdStartLatency
		if n.cfg.Chaos.Should(chaos.SlowColdStart) {
			bootLatency = time.Duration(float64(bootLatency) * n.cfg.Chaos.ColdStartFactor())
			n.slowBoots++
		}
		n.eng.Schedule(bootLatency, func() {
			c.group = n.pool.NewGroup(c.id, req.opts.CPULimit)
			c.gilGroup = n.pool.NewGroup(c.id+"/gil", 1)
			// Runtime init (interpreter, server, SDK imports) burns CPU
			// inside the container's own group, contending node-wide.
			if n.cfg.ContainerInitCPUWork > 0 {
				c.group.Submit(n.cfg.ContainerInitCPUWork, ready)
				return
			}
			ready()
		})
	})
}

// containerCacheConfig adapts an acquisition's multiplexer config to the
// simulation: TTL and backoff arithmetic run on the engine's virtual
// clock, and every instance leaving the cache (LRU eviction, TTL expiry,
// refresh replacement, invalidation, close) releases its charged client
// memory — the eviction half of the cache's cost model. A user OnEvict
// runs first.
func (n *Node) containerCacheConfig(c *Container, mcfg multiplex.Config) multiplex.Config {
	user := mcfg.OnEvict
	mcfg.Now = func() time.Duration { return time.Duration(n.eng.Now()) }
	mcfg.OnEvict = func(k multiplex.Key, inst any, bytes int64) {
		if user != nil {
			user(k, inst, bytes)
		}
		c.FreeClientMem(bytes)
	}
	return mcfg
}

// parkIdle returns a drained container to the warm pool and arms its
// keep-alive eviction timer.
func (n *Node) parkIdle(c *Container) {
	c.state = Idle
	c.idleSince = n.eng.Now()
	c.idleEpoch++
	epoch := c.idleEpoch
	n.warm[c.fn] = append(n.warm[c.fn], c)
	n.eng.Schedule(n.cfg.KeepAlive, func() {
		if c.state == Idle && c.idleEpoch == epoch {
			n.evict(c)
		}
	})
}

// evict tears a container down, freeing its memory.
func (n *Node) evict(c *Container) {
	list := n.warm[c.fn]
	for i, other := range list {
		if other == c {
			n.warm[c.fn] = append(list[:i], list[i+1:]...)
			break
		}
	}
	n.teardown(c)
	n.evictions++
}

// teardown releases a container's resources. Freed memory may unblock
// admission-controlled creations.
func (n *Node) teardown(c *Container) {
	if c.state == Evicted {
		return
	}
	defer n.pumpCreations()
	c.state = Evicted
	// All client memory — transient duplicates and multiplexer-cached
	// instances alike — is charged through AllocClientMem and therefore
	// lives in clientBytes, freed wholesale here. The cache is closed for
	// its stats and lifecycle hooks; its per-instance FreeClientMem calls
	// clamp to the already-zeroed balance.
	freed := n.cfg.ContainerMem + c.clientBytes
	c.clientBytes = 0
	c.clientLive = 0
	if c.cache != nil {
		c.cache.Close()
	}
	n.freeMem(freed)
	n.advanceLiveIntegral()
	n.live--
	// Groups exist only after boot completed. A container with accepted
	// invocations still inside (crash mid-batch) keeps its groups until
	// that work drains — ReturnThread closes them on the last return;
	// closing now would detach the pool from CPU work those invocations
	// submit later (IO-phase invocations submit their compute on return),
	// silently losing them.
	if c.active == 0 {
		c.closeGroups()
	}
}

// EvictIdle immediately evicts every idle container (end-of-experiment
// cleanup so memory-ledger invariants can be asserted).
func (n *Node) EvictIdle() int {
	evicted := 0
	for fn, list := range n.warm {
		for _, c := range list {
			n.teardown(c)
			evicted++
			n.evictions++
		}
		delete(n.warm, fn)
	}
	return evicted
}

// WarmCount reports the idle containers available for fn.
func (n *Node) WarmCount(fn string) int { return len(n.warm[fn]) }

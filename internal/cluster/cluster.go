// Package cluster extends FaaSBatch beyond the paper's single worker VM:
// a fleet of simulated worker nodes, each running its own FaaSBatch
// scheduler (Invoke Mapper + Inline-Parallel Producer + Resource
// Multiplexer), behind a dispatcher that routes invocations to nodes.
//
// The paper scopes its evaluation to one machine ("rather than the
// efficiency of clustered servers", §IV); this package is the natural
// scale-out: because FaaSBatch folds a function's concurrent invocations
// into one container, routing *by function* (affinity) preserves batching
// locality across the fleet, while per-invocation balancing (least-loaded
// or round-robin) fragments windows across nodes and pays for it with
// extra containers — a trade-off the example and benches quantify.
package cluster

import (
	"fmt"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/chaos"
	"faasbatch/internal/core"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/router"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
)

// Balancing selects the dispatcher's routing strategy.
type Balancing int

// Routing strategies.
const (
	// FnAffinity pins each function to one node (chosen least-loaded at
	// first sight), preserving FaaSBatch's batching locality.
	FnAffinity Balancing = iota + 1
	// LeastLoaded routes each invocation to the node with the fewest
	// in-flight invocations.
	LeastLoaded
	// RoundRobin cycles nodes per invocation.
	RoundRobin
	// ConsistentHash pins each function to the node owning it on a
	// consistent-hash ring (the same ring the live routing tier runs, so
	// simulated and live assignments agree function by function).
	ConsistentHash
	// Pull inverts the binding: invocations park in sharded per-function
	// queues (internal/pullsched) and nodes with free lease capacity
	// pull batches, so hot functions late-bind to the least-loaded node
	// instead of queueing behind a hash slot. Runs the same decision
	// core as the live router's -policy=pull.
	Pull
)

// String implements fmt.Stringer.
func (b Balancing) String() string {
	switch b {
	case FnAffinity:
		return "fn-affinity"
	case LeastLoaded:
		return "least-loaded"
	case RoundRobin:
		return "round-robin"
	case ConsistentHash:
		return "consistent-hash"
	case Pull:
		return "pull"
	default:
		return fmt.Sprintf("balancing(%d)", int(b))
	}
}

// NodeMember names node i on the consistent-hash ring. The live routing
// tier must use the same worker IDs for the sim-vs-live assignment
// comparison to hold.
func NodeMember(i int) string { return fmt.Sprintf("node-%d", i) }

// Config parameterises a cluster.
type Config struct {
	// Nodes is the worker-node count.
	Nodes int
	// Node configures each worker (zero value: node.DefaultConfig).
	Node node.Config
	// NodeConfigs optionally configures workers individually — a
	// heterogeneous fleet generated from weighted templates (the stress
	// harness's fleet section). When non-empty its length must equal
	// Nodes and it overrides Node.
	NodeConfigs []node.Config
	// Core configures each node's FaaSBatch scheduler (zero value:
	// core.DefaultConfig).
	Core core.Config
	// Balancing selects the dispatcher strategy (default FnAffinity).
	Balancing Balancing
	// Chaos optionally injects seeded faults into every node (boot
	// failures, slow cold starts) and runner (crashes, handler faults).
	// All nodes share the injector, so one seed fixes the fleet's fault
	// schedule. Nil injects nothing.
	Chaos *chaos.Injector
	// Autoscale optionally runs the predictive autoscaling control
	// plane over the fleet: Nodes then bounds the maximum fleet size and
	// the controller grows/shrinks ring membership between
	// Autoscale.MinWorkers and min(Autoscale.MaxWorkers, Nodes). Nil
	// keeps the fleet static.
	Autoscale *autoscale.Config
	// Pull tunes the pull scheduler when Balancing is Pull (nil uses
	// pullsched defaults with an unbounded queue). Pull.Workers is
	// overridden with Nodes.
	Pull *pullsched.Config
}

// Cluster is a fleet of FaaSBatch worker nodes behind a dispatcher.
type Cluster struct {
	eng     *sim.Engine
	cfg     Config
	nodes   []*node.Node
	runners []*fnruntime.Runner
	scheds  []*core.FaaSBatch
	picker  *picker
	scaler  *simScaler
	pull    *pullDriver
}

// picker is the dispatcher's routing state, separated from the cluster so
// an assignment sequence can be computed standalone (AssignmentSequence)
// and compared against the live router.
type picker struct {
	balancing Balancing
	inflight  []int
	assigned  []int // functions pinned per node (FnAffinity)
	routed    []int // invocations dispatched per node (all policies)
	affinity  map[string]int
	down      []bool // marked-down nodes are skipped for new routing
	downCount int
	rrCounter int
	ring      *router.Ring   // ConsistentHash only
	memberIdx map[string]int // ring member name -> node index
	// onDown observes every effective mark-down/mark-up transition; the
	// pull driver uses it to mirror membership into its decision core.
	onDown func(i int, down bool)
}

// newPicker builds routing state for n nodes.
func newPicker(b Balancing, n int) *picker {
	p := &picker{
		balancing: b,
		inflight:  make([]int, n),
		assigned:  make([]int, n),
		routed:    make([]int, n),
		affinity:  make(map[string]int, 16),
		down:      make([]bool, n),
	}
	if b == ConsistentHash {
		p.ring = router.NewRing(router.DefaultVNodes)
		p.memberIdx = make(map[string]int, n)
		for i := 0; i < n; i++ {
			m := NodeMember(i)
			p.ring.Add(m)
			p.memberIdx[m] = i
		}
	}
	return p
}

// setDown updates node i's mark-down state, mirroring the live registry's
// state machine: a down node stops receiving new work but keeps draining
// what it already owns. ConsistentHash removes/re-adds the ring member so
// ownership arcs redistribute exactly as the live router's would.
func (p *picker) setDown(i int, down bool) {
	if p.down[i] == down {
		return
	}
	p.down[i] = down
	if down {
		p.downCount++
	} else {
		p.downCount--
	}
	if p.ring != nil {
		m := NodeMember(i)
		if down {
			p.ring.Remove(m)
		} else {
			p.ring.Add(m)
		}
	}
	if p.onDown != nil {
		p.onDown(i, down)
	}
}

// pick selects the target node for a function. Marked-down nodes are
// avoided; when the whole fleet is down, routing degrades to
// least-loaded over all nodes (mark-down is advisory, work is never
// dropped at the dispatcher).
func (p *picker) pick(fn string) int {
	switch p.balancing {
	case LeastLoaded:
		return p.leastLoaded()
	case RoundRobin:
		for tries := 0; tries < len(p.inflight); tries++ {
			idx := p.rrCounter % len(p.inflight)
			p.rrCounter++
			if !p.down[idx] {
				return idx
			}
		}
		return p.leastLoaded()
	case ConsistentHash:
		member, ok := p.ring.Pick(fn)
		if !ok {
			return p.leastLoaded()
		}
		idx := p.memberIdx[member]
		p.affinity[fn] = idx
		return idx
	default: // FnAffinity
		if idx, ok := p.affinity[fn]; ok && !p.down[idx] {
			return idx
		}
		if idx, ok := p.affinity[fn]; ok {
			// Pinned node is down: fail the function over to the best
			// healthy node. The new pin is sticky — recovery does not
			// move it back, matching the live tier's behaviour where a
			// recovered worker only regains functions on re-routing.
			p.assigned[idx]--
			best := p.bestPin()
			p.affinity[fn] = best
			p.assigned[best]++
			return best
		}
		// First sight: pin to the node with the lightest combination of
		// in-flight work and already-pinned functions, so a cold window
		// of many new functions still spreads across the fleet.
		best := p.bestPin()
		p.affinity[fn] = best
		p.assigned[best]++
		return best
	}
}

// bestPin returns the healthy node with the lightest in-flight+pinned
// load (lowest index wins ties); all nodes compete when none is healthy.
func (p *picker) bestPin() int {
	best := -1
	for i := range p.inflight {
		if p.down[i] && p.downCount < len(p.inflight) {
			continue
		}
		if best < 0 || p.inflight[i]+p.assigned[i] < p.inflight[best]+p.assigned[best] {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// leastLoaded returns the healthy node with the fewest in-flight
// invocations (lowest index wins ties, keeping runs deterministic); all
// nodes compete when none is healthy.
func (p *picker) leastLoaded() int {
	best := -1
	for i := range p.inflight {
		if p.down[i] && p.downCount < len(p.inflight) {
			continue
		}
		if best < 0 || p.inflight[i] < p.inflight[best] {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// New builds a cluster on the given engine.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if eng == nil {
		return nil, fmt.Errorf("cluster: engine must not be nil")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", cfg.Nodes)
	}
	if cfg.Node.Cores == 0 {
		cfg.Node = node.DefaultConfig()
	}
	if len(cfg.NodeConfigs) > 0 && len(cfg.NodeConfigs) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: NodeConfigs has %d entries for %d nodes", len(cfg.NodeConfigs), cfg.Nodes)
	}
	if cfg.Core.Interval == 0 {
		cfg.Core = core.DefaultConfig()
	}
	if cfg.Balancing == 0 {
		cfg.Balancing = FnAffinity
	}
	if cfg.Balancing < FnAffinity || cfg.Balancing > Pull {
		return nil, fmt.Errorf("cluster: unknown balancing %d", int(cfg.Balancing))
	}
	c := &Cluster{
		eng:    eng,
		cfg:    cfg,
		picker: newPicker(cfg.Balancing, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		ncfg := cfg.Node
		if len(cfg.NodeConfigs) > 0 {
			ncfg = cfg.NodeConfigs[i]
			if ncfg.Cores == 0 {
				ncfg = node.DefaultConfig()
			}
		}
		ncfg.Chaos = cfg.Chaos
		nd, err := node.New(eng, ncfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		runner := fnruntime.NewRunner(eng)
		runner.SetChaos(cfg.Chaos)
		sched, err := core.New(policy.Env{Eng: eng, Node: nd, Runner: runner}, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("cluster: scheduler %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		c.runners = append(c.runners, runner)
		c.scheds = append(c.scheds, sched)
	}
	if cfg.Balancing == Pull {
		if err := c.initPull(cfg.Pull); err != nil {
			return nil, err
		}
	}
	if cfg.Autoscale != nil {
		if err := c.initAutoscale(*cfg.Autoscale); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetDown marks node i down (true) or back up (false). A down node stops
// receiving newly routed work but keeps draining in-flight invocations —
// the mark-down/mark-up semantics of the live worker registry, so a
// zone-outage scenario loses zero invocations on failover. Marking every
// node down degrades routing to least-loaded over the whole fleet rather
// than dropping work.
func (c *Cluster) SetDown(i int, down bool) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: node index %d out of range [0, %d)", i, len(c.nodes))
	}
	c.picker.setDown(i, down)
	return nil
}

// Down reports whether node i is currently marked down (false for
// out-of-range indexes).
func (c *Cluster) Down(i int) bool {
	if i < 0 || i >= len(c.picker.down) {
		return false
	}
	return c.picker.down[i]
}

// Nodes exposes the worker nodes (for metrics probes).
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Schedulers exposes the per-node FaaSBatch schedulers.
func (c *Cluster) Schedulers() []*core.FaaSBatch { return c.scheds }

// Submit routes one invocation to a node's FaaSBatch scheduler. With
// autoscaling enabled the arrival feeds the demand tracker first, so a
// scaled-to-zero fleet wakes before the dispatcher picks a node and the
// waking arrival routes to the woken node — zero invocations are lost
// across a scale-to-zero cycle.
func (c *Cluster) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	start := c.eng.Now()
	if c.scaler != nil {
		c.scaler.observe(inv.Spec.Name, start.Duration())
	}
	if c.pull != nil {
		c.pull.submit(inv, complete, start)
		return
	}
	idx := c.picker.pick(inv.Spec.Name)
	c.picker.inflight[idx]++
	c.picker.routed[idx]++
	c.scheds[idx].Submit(inv, func(done *fnruntime.Invocation) {
		c.picker.inflight[idx]--
		if c.scaler != nil {
			c.scaler.completed(idx)
		}
		complete(done)
	})
}

// RoutedPerNode reports how many invocations each node has been
// dispatched so far — the load-spread sample the skewed-traffic
// experiment computes its coefficient of variation over.
func (c *Cluster) RoutedPerNode() []int {
	return append([]int(nil), c.picker.routed...)
}

// Assignments reports the function-to-node pinning the dispatcher has
// accumulated: every function routed so far for the pinning policies
// (FnAffinity, ConsistentHash); empty for per-invocation policies.
func (c *Cluster) Assignments() map[string]int {
	out := make(map[string]int, len(c.picker.affinity))
	for fn, idx := range c.picker.affinity {
		out[fn] = idx
	}
	return out
}

// AssignmentSequence computes, standalone, the node index policy b would
// route each function name to on an idle fleet of n nodes — the
// dispatcher's decision sequence without running any work. The live
// routing tier's conformance test replays the same sequence against real
// workers named NodeMember(i) and asserts they agree.
func AssignmentSequence(b Balancing, n int, fns []string) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", n)
	}
	if b == Pull {
		// Pull assignments depend on completions (capacity frees drive
		// grants), so they cannot be computed standalone on an idle
		// fleet; the pull conformance test replays a recorded event log
		// instead (PullEvents/PullGrants).
		return nil, fmt.Errorf("cluster: pull balancing has no standalone assignment sequence")
	}
	if b < FnAffinity || b > ConsistentHash {
		return nil, fmt.Errorf("cluster: unknown balancing %d", int(b))
	}
	p := newPicker(b, n)
	out := make([]int, len(fns))
	for i, fn := range fns {
		out[i] = p.pick(fn)
	}
	return out, nil
}

// Close shuts every node's scheduler down and stops the autoscale
// control loop.
func (c *Cluster) Close() error {
	if c.scaler != nil {
		c.scaler.ticker.Stop()
	}
	for i, s := range c.scheds {
		if err := s.Close(); err != nil {
			return fmt.Errorf("cluster: close scheduler %d: %w", i, err)
		}
	}
	return nil
}

// TotalContainers sums provisioned containers across nodes.
func (c *Cluster) TotalContainers() int {
	n := 0
	for _, nd := range c.nodes {
		n += nd.TotalCreated()
	}
	return n
}

// Result aggregates one cluster replay.
type Result struct {
	// Balancing echoes the routing strategy.
	Balancing Balancing
	// Nodes echoes the node count.
	Nodes int
	// Records holds every invocation's latency decomposition.
	Records []metrics.Record
	// TotalContainers sums containers provisioned across the fleet.
	TotalContainers int
	// ContainersPerNode breaks provisioning down by node.
	ContainersPerNode []int
	// MemPerNode is each node's peak memory.
	MemPerNode []int64
	// Makespan is the completion time of the last invocation.
	Makespan time.Duration
}

// CDF extracts a latency-component CDF from the records.
func (r *Result) CDF(comp metrics.Component) metrics.CDF {
	return metrics.NewCDF(metrics.Extract(r.Records, comp))
}

// Imbalance reports max/mean of per-node container counts (1.0 =
// perfectly balanced; 0 when the fleet provisioned nothing).
func (r *Result) Imbalance() float64 {
	return metrics.Imbalance(r.ContainersPerNode)
}

// ReplayConfig describes a cluster replay run.
type ReplayConfig struct {
	// Cluster configures the fleet.
	Cluster Config
	// Trace is the workload.
	Trace trace.Trace
	// Seed drives the engine.
	Seed int64
}

// Replay runs a trace through a cluster to completion.
func Replay(cfg ReplayConfig) (*Result, error) {
	if cfg.Trace.Len() == 0 {
		return nil, fmt.Errorf("cluster: trace is empty")
	}
	eng := sim.New(cfg.Seed)
	cl, err := New(eng, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	specs, err := trace.SpecsFor(cfg.Trace)
	if err != nil {
		return nil, err
	}
	res := &Result{Balancing: cl.cfg.Balancing, Nodes: cfg.Cluster.Nodes}
	total := cfg.Trace.Len()
	for i, inv := range cfg.Trace.Invocations {
		i := i
		spec := specs[i]
		eng.Schedule(inv.Offset, func() {
			fi := fnruntime.NewInvocation(int64(i), spec, eng.Now())
			cl.Submit(fi, func(done *fnruntime.Invocation) {
				res.Records = append(res.Records, done.Rec)
			})
		})
	}
	for len(res.Records) < total {
		if !eng.Step() {
			return nil, fmt.Errorf("cluster: engine drained with %d/%d complete", len(res.Records), total)
		}
	}
	res.Makespan = eng.Now().Duration()
	if err := cl.Close(); err != nil {
		return nil, err
	}
	for _, nd := range cl.nodes {
		res.ContainersPerNode = append(res.ContainersPerNode, nd.TotalCreated())
		res.MemPerNode = append(res.MemPerNode, nd.MemPeak())
	}
	res.TotalContainers = cl.TotalContainers()
	return res, nil
}

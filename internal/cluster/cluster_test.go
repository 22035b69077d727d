package cluster

import (
	"testing"
	"time"

	"faasbatch/internal/metrics"
	"faasbatch/internal/node"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// testTrace builds a small multi-function burst.
func testTrace(t *testing.T, n int, fns int) trace.Trace {
	t.Helper()
	tr := trace.Trace{Name: "cluster-test", Span: 10 * time.Second}
	for i := 0; i < n; i++ {
		tr.Invocations = append(tr.Invocations, trace.Invocation{
			Offset: time.Duration(i*25) * time.Millisecond,
			Fn:     string(rune('a' + i%fns)),
			FibN:   22 + i%4,
		})
	}
	return tr
}

func testClusterConfig(nodes int, bal Balancing) Config {
	ncfg := node.DefaultConfig()
	ncfg.Cores = 8
	ncfg.ContainerInitCPUWork = 0
	ncfg.CreateCPUWork = 100 * time.Millisecond
	ncfg.KeepAlive = time.Hour
	return Config{Nodes: nodes, Node: ncfg, Balancing: bal}
}

func TestBalancingString(t *testing.T) {
	want := map[Balancing]string{FnAffinity: "fn-affinity", LeastLoaded: "least-loaded", RoundRobin: "round-robin", ConsistentHash: "consistent-hash"}
	for b, w := range want {
		if got := b.String(); got != w {
			t.Errorf("%d = %q, want %q", int(b), got, w)
		}
	}
	if Balancing(9).String() != "balancing(9)" {
		t.Error("unknown balancing string wrong")
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.New(1)
	if _, err := New(nil, testClusterConfig(1, FnAffinity)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, Config{Nodes: 0}); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg := testClusterConfig(1, Balancing(9))
	if _, err := New(eng, cfg); err == nil {
		t.Error("unknown balancing accepted")
	}
}

func TestReplayCompletesEverything(t *testing.T) {
	for _, bal := range []Balancing{FnAffinity, LeastLoaded, RoundRobin} {
		tr := testTrace(t, 60, 4)
		res, err := Replay(ReplayConfig{Cluster: testClusterConfig(3, bal), Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", bal, err)
		}
		if len(res.Records) != tr.Len() {
			t.Errorf("%v: %d records, want %d", bal, len(res.Records), tr.Len())
		}
		if res.Nodes != 3 || res.Balancing != bal {
			t.Errorf("%v: result metadata %+v", bal, res)
		}
		if res.TotalContainers == 0 || res.Makespan <= 0 {
			t.Errorf("%v: empty result %+v", bal, res)
		}
		if len(res.ContainersPerNode) != 3 || len(res.MemPerNode) != 3 {
			t.Errorf("%v: per-node breakdown missing", bal)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(ReplayConfig{Cluster: testClusterConfig(1, FnAffinity)}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestFnAffinityPinsFunctionsToNodes(t *testing.T) {
	// With as many nodes as functions, affinity spreads functions 1:1 and
	// every function's containers stay on one node.
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(4, FnAffinity))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fns := []string{"a", "b", "c", "d"}
	for round := 0; round < 3; round++ {
		for _, fn := range fns {
			if got := cl.picker.pick(fn); got != cl.picker.affinity[fn] {
				t.Fatalf("pick(%s) = %d, want sticky %d", fn, got, cl.picker.affinity[fn])
			}
		}
	}
	seen := map[int]bool{}
	for _, fn := range fns {
		seen[cl.picker.affinity[fn]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("affinity used %d nodes for 4 functions, want 4", len(seen))
	}
}

func TestRoundRobinCycles(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, RoundRobin))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := cl.picker.pick("f"); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedFollowsInflight(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, LeastLoaded))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cl.picker.inflight[0] = 5
	cl.picker.inflight[1] = 1
	cl.picker.inflight[2] = 3
	if got := cl.picker.pick("f"); got != 1 {
		t.Fatalf("pick = %d, want least-loaded node 1", got)
	}
}

func TestAffinityPreservesBatchingLocality(t *testing.T) {
	// One hot function on a 4-node cluster: affinity keeps all its
	// batches on one node (few containers); round-robin fragments every
	// window across the fleet (more containers).
	mk := func(bal Balancing) *Result {
		tr := testTrace(t, 80, 1) // single function
		res, err := Replay(ReplayConfig{Cluster: testClusterConfig(4, bal), Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", bal, err)
		}
		return res
	}
	aff := mk(FnAffinity)
	rr := mk(RoundRobin)
	if aff.TotalContainers >= rr.TotalContainers {
		t.Fatalf("affinity containers %d not fewer than round-robin %d",
			aff.TotalContainers, rr.TotalContainers)
	}
	// Affinity: one node hosts everything -> maximum imbalance (= #nodes
	// for a single function); round-robin spreads evenly.
	if aff.Imbalance() <= rr.Imbalance() {
		t.Fatalf("affinity imbalance %.2f not above round-robin %.2f (single hot function)",
			aff.Imbalance(), rr.Imbalance())
	}
}

func TestClusterScalingReducesContention(t *testing.T) {
	// A heavy burst on 1 node vs 4 nodes: more nodes must not increase
	// tail latency, and usually improve it.
	tr := testTrace(t, 120, 8)
	p99 := func(nodes int) time.Duration {
		res, err := Replay(ReplayConfig{Cluster: testClusterConfig(nodes, FnAffinity), Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		return res.CDF(metrics.EndToEnd).P(0.99)
	}
	one, four := p99(1), p99(4)
	if four > one {
		t.Fatalf("p99 with 4 nodes (%v) worse than 1 node (%v)", four, one)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	var r Result
	if r.Imbalance() != 0 {
		t.Error("empty result imbalance should be 0")
	}
	r.ContainersPerNode = []int{0, 0}
	if r.Imbalance() != 0 {
		t.Error("zero-container imbalance should be 0")
	}
	r.ContainersPerNode = []int{2, 2}
	if r.Imbalance() != 1 {
		t.Errorf("balanced imbalance = %v, want 1", r.Imbalance())
	}
}

func TestSpecsForRejectsBadFib(t *testing.T) {
	tr := trace.Trace{Invocations: []trace.Invocation{{Fn: "f", FibN: 5}}}
	if _, err := trace.SpecsFor(tr); err == nil {
		t.Fatal("invalid fib N accepted")
	}
	ok := trace.Trace{Invocations: []trace.Invocation{{Fn: "s3"}}}
	specs, err := trace.SpecsFor(ok)
	if err != nil {
		t.Fatalf("SpecsFor: %v", err)
	}
	if specs[0].Kind != workload.IO {
		t.Fatalf("spec kind = %v, want IO", specs[0].Kind)
	}
}

// TestLeastLoadedTieBreaksLowestIndex pins the documented determinism
// contract: with two (or more) equally loaded nodes, the dispatcher picks
// the lowest index, so identical runs reproduce identical placements.
func TestLeastLoadedTieBreaksLowestIndex(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, LeastLoaded))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// All idle: node 0 wins.
	if got := cl.picker.pick("f"); got != 0 {
		t.Fatalf("idle tie pick = %d, want 0", got)
	}
	// Nodes 1 and 2 tie below node 0: node 1 wins.
	cl.picker.inflight[0] = 4
	cl.picker.inflight[1] = 2
	cl.picker.inflight[2] = 2
	if got := cl.picker.pick("f"); got != 1 {
		t.Fatalf("two-way tie pick = %d, want lowest index 1", got)
	}
}

// TestFnAffinityFirstSightTieBreaksLowestIndex covers the pinning path:
// an unseen function on an evenly loaded fleet pins to the lowest index,
// and subsequent unseen functions spread by pin count.
func TestFnAffinityFirstSightTieBreaksLowestIndex(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(2, FnAffinity))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := cl.picker.pick("first"); got != 0 {
		t.Fatalf("first unseen fn pinned to %d, want 0", got)
	}
	// Node 0 now carries one pin; the next unseen function goes to 1.
	if got := cl.picker.pick("second"); got != 1 {
		t.Fatalf("second unseen fn pinned to %d, want 1", got)
	}
	// Another tie (one pin each): back to the lowest index.
	if got := cl.picker.pick("third"); got != 0 {
		t.Fatalf("third unseen fn pinned to %d, want 0", got)
	}
}

func TestConsistentHashDeterministicAndSticky(t *testing.T) {
	eng := sim.New(1)
	cl, err := New(eng, testClusterConfig(3, ConsistentHash))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fns := []string{"fib", "echo", "s3upload", "resize", "train"}
	first := make(map[string]int, len(fns))
	for _, fn := range fns {
		first[fn] = cl.picker.pick(fn)
	}
	// Sticky across repeats, load or not.
	cl.picker.inflight[first["fib"]] += 50
	for round := 0; round < 3; round++ {
		for _, fn := range fns {
			if got := cl.picker.pick(fn); got != first[fn] {
				t.Fatalf("round %d: pick(%s) = %d, want sticky %d", round, fn, got, first[fn])
			}
		}
	}
	// A second cluster agrees assignment-for-assignment.
	cl2, err := New(sim.New(99), testClusterConfig(3, ConsistentHash))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, fn := range fns {
		if got := cl2.picker.pick(fn); got != first[fn] {
			t.Fatalf("second cluster pick(%s) = %d, want %d", fn, got, first[fn])
		}
	}
	// Assignments reflects the pinning.
	got := cl.Assignments()
	for _, fn := range fns {
		if got[fn] != first[fn] {
			t.Fatalf("Assignments[%s] = %d, want %d", fn, got[fn], first[fn])
		}
	}
}

func TestAssignmentSequence(t *testing.T) {
	fns := []string{"fib", "echo", "fib", "s3upload", "echo"}
	seq, err := AssignmentSequence(ConsistentHash, 3, fns)
	if err != nil {
		t.Fatalf("AssignmentSequence: %v", err)
	}
	if len(seq) != len(fns) {
		t.Fatalf("len = %d, want %d", len(seq), len(fns))
	}
	// Repeats of a function get the same node.
	if seq[0] != seq[2] || seq[1] != seq[4] {
		t.Fatalf("repeat assignments differ: %v", seq)
	}
	// The sequence matches a live picker fed the same names.
	again, err := AssignmentSequence(ConsistentHash, 3, fns)
	if err != nil {
		t.Fatalf("AssignmentSequence: %v", err)
	}
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, seq, again)
		}
	}
	// Round-robin sequences cycle.
	rr, err := AssignmentSequence(RoundRobin, 2, fns)
	if err != nil {
		t.Fatalf("AssignmentSequence: %v", err)
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if rr[i] != want[i] {
			t.Fatalf("round-robin seq = %v, want %v", rr, want)
		}
	}
	// Validation.
	if _, err := AssignmentSequence(ConsistentHash, 0, fns); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := AssignmentSequence(Balancing(9), 2, fns); err == nil {
		t.Fatal("unknown balancing accepted")
	}
}

// TestConsistentHashReplay runs a full replay under the ring policy and
// checks it preserves locality like FnAffinity does (few containers for a
// single hot function).
func TestConsistentHashReplay(t *testing.T) {
	tr := testTrace(t, 80, 1)
	res, err := Replay(ReplayConfig{Cluster: testClusterConfig(4, ConsistentHash), Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rr, err := Replay(ReplayConfig{Cluster: testClusterConfig(4, RoundRobin), Trace: tr, Seed: 1})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.TotalContainers >= rr.TotalContainers {
		t.Fatalf("consistent-hash containers %d not fewer than round-robin %d",
			res.TotalContainers, rr.TotalContainers)
	}
	if len(res.Records) != tr.Len() {
		t.Fatalf("records = %d, want %d", len(res.Records), tr.Len())
	}
}

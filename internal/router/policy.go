package router

import (
	"context"
	"fmt"

	"faasbatch/internal/httpapi"
)

// Policy names accepted by Config.Policy and the -policy flag.
const (
	// PolicyHash is push scheduling: consistent-hash function affinity
	// with bounded load, the router's original behaviour and the default.
	PolicyHash = "hash"
	// PolicyPull is pull scheduling: invocations queue per function at
	// the router and workers with free capacity lease them in batches,
	// late-binding hot functions to the least-loaded worker.
	PolicyPull = "pull"
)

// Policy is the router's scheduling strategy: it turns an admitted
// invocation into a Binding that names the worker for each forward
// attempt. Implementations are the consistent-hash push policy
// (PolicyHash) and the late-binding pull policy (PolicyPull). The
// interface is sealed — the unexported sweep method keeps outside
// packages from implementing it, so its surface can still move.
type Policy interface {
	// Name reports the policy's registered name.
	Name() string
	// Assign admits one invocation to the policy and returns the
	// binding that will name a worker per attempt. It blocks only in
	// scale-from-zero holds; queue waits happen in Binding.Next. The
	// error is ErrNoWorkers (empty ring) or an *OverloadError (the pull
	// policy's queue-depth bound).
	Assign(ctx context.Context, fn string) (Binding, error)
	// OnMembershipChange observes a worker joining or leaving the
	// serving set (probe mark-down/up, autoscale activate/drain/retire).
	// The pull policy stops granting to ineligible workers and treats a
	// newly eligible one as a wake — it immediately drains queued work.
	OnMembershipChange(workerID string, eligible bool)
	// Stats snapshots the policy's counters for /stats and /metrics.
	Stats() httpapi.PolicyStats
	// sweep runs periodic maintenance off the probe loop (the pull
	// policy's lease-expiry scan). Sealed: implementations live here.
	sweep()
}

// Binding is one invocation's assignment under a Policy.
type Binding interface {
	// Next names the worker for the given 1-based attempt. Hash returns
	// ring candidates round-robin and never blocks; pull blocks until a
	// lease is granted (attempt > 1 first requeues the failed lease so
	// the re-grant prefers a different worker).
	Next(ctx context.Context, attempt int) (string, error)
	// Done settles the binding: ok acks the lease, !ok aborts it (the
	// invocation errored out or its context expired). Idempotent; the
	// forwarder calls it exactly once via defer.
	Done(ok bool)
	// detail labels the route span (sealed for the same reason as sweep).
	detail() string
}

// hashPolicy is the push policy: Candidates picks bounded-load ring
// replicas once per invocation, and attempts walk them round-robin —
// byte-for-byte the router's pre-policy-API behaviour.
type hashPolicy struct {
	rt *Router
}

// Name implements Policy.
func (p *hashPolicy) Name() string { return PolicyHash }

// Assign implements Policy.
func (p *hashPolicy) Assign(ctx context.Context, fn string) (Binding, error) {
	cands := p.rt.reg.Candidates(fn, p.rt.cfg.LoadBound)
	if len(cands) == 0 && p.rt.scaler != nil {
		// Scale-from-zero: the wake decision is already in flight
		// (observe ran before forward); hold the invocation until a
		// worker finishes warming instead of bouncing it with 503.
		cands = p.rt.awaitCapacity(ctx, fn)
	}
	if len(cands) == 0 {
		return nil, ErrNoWorkers
	}
	return &hashBinding{cands: cands}, nil
}

// OnMembershipChange implements Policy: the ring inside the registry
// already reflects membership, so hash has nothing to track.
func (p *hashPolicy) OnMembershipChange(string, bool) {}

// Stats implements Policy.
func (p *hashPolicy) Stats() httpapi.PolicyStats {
	return httpapi.PolicyStats{Policy: PolicyHash}
}

// sweep implements Policy (no periodic work).
func (p *hashPolicy) sweep() {}

// hashBinding walks the candidate list round-robin across attempts.
type hashBinding struct {
	cands []string
}

// Next implements Binding.
func (b *hashBinding) Next(_ context.Context, attempt int) (string, error) {
	return b.cands[(attempt-1)%len(b.cands)], nil
}

// Done implements Binding (push holds no lease to settle).
func (b *hashBinding) Done(bool) {}

// detail implements Binding.
func (b *hashBinding) detail() string {
	return fmt.Sprintf("candidates=%d", len(b.cands))
}

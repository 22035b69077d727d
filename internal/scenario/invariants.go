// invariants.go is the catalog of run assertions a scenario can declare.
// The runner evaluates them at quiescence and records each verdict in the
// report; cmd/faasstress exits non-zero when any fails, so CI treats an
// invariant violation exactly like a failing test.
package scenario

import (
	"fmt"
	"time"

	"faasbatch/internal/metrics"
	"faasbatch/internal/slo"
)

// newSLOTracker builds a burn-rate tracker over the scenario's slo
// objectives, with the alerting windows scaled so the slow-long window
// spans the whole scenario. Nil when no slo invariants are declared.
func newSLOTracker(sc *Scenario) (*slo.Tracker, error) {
	objs := sc.SLOObjectives()
	if len(objs) == 0 {
		return nil, nil
	}
	return slo.NewTracker(slo.ScaledWindows(sc.TotalDuration()), objs)
}

// sloVerdicts evaluates the tracker at quiescence into the keyed map
// evalInvariants consumes. Statuses come back in objective declaration
// order, which is the declared slo-invariant order.
func sloVerdicts(sc *Scenario, tr *slo.Tracker, now time.Duration) map[string]slo.Status {
	if tr == nil {
		return nil
	}
	statuses := tr.Evaluate(now)
	out := make(map[string]slo.Status, len(statuses))
	i := 0
	for _, inv := range sc.Invariants {
		if inv.Name != "slo" || inv.SLO == nil {
			continue
		}
		if i < len(statuses) {
			out[inv.SLO.key()] = statuses[i]
		}
		i++
	}
	return out
}

// invariantCatalog names the known assertions; parameterised entries take
// a "name: value" form in the scenario file.
var invariantCatalog = map[string]struct{ parameterised bool }{
	// no-lost-invocations: every submitted invocation completed (possibly
	// as a recorded failure) — zero silent loss, including across zone
	// outages and chaos storms. Always checked; declaring it is
	// documentation.
	"no-lost-invocations": {},
	// conservation: the routing tier's accounting balances. Sim: the sum
	// of per-node scheduler Submitted counters equals the harness's
	// submissions. Live: platform Submitted == Invocations + Canceled at
	// quiescence. Always checked.
	"conservation": {},
	// zero-failures: no invocation exhausted its retry budget.
	"zero-failures": {},
	// max-failure-rate: failed/submitted must not exceed the value.
	"max-failure-rate": {parameterised: true},
	// all-recovered: no worker is still marked down at the end of the
	// run (every outage's recovery fired).
	"all-recovered": {},
	// slo: a per-function burn-rate objective (internal/slo) stayed
	// within budget for the whole run — the breach verdict latches at
	// bucket boundaries, so a mid-run storm fails the scenario even if
	// the tail of the run recovers. Takes a mapping parameter:
	//   - slo: {function: f1, p99_ms: 250, max_burn: 2.0}
	"slo": {parameterised: true},
	// min-peak-ready: the autoscaler grew the fleet to at least this
	// many simultaneously ready workers at some sample — the elasticity
	// assertion that a burst actually scaled up.
	"min-peak-ready": {parameterised: true},
	// scaled-to-zero: the fleet was fully retired at quiescence (needs
	// an autoscale block with min-workers 0 and a quiet tail phase
	// longer than scale-to-zero-after).
	"scaled-to-zero": {},
	// max-load-cv: the coefficient of variation (stddev/mean) of
	// per-worker routed-invocation counts must not exceed the value —
	// the load-spread assertion that late binding actually flattens a
	// skewed function mix across the fleet. Sim mode only.
	"max-load-cv": {parameterised: true},
}

// InvariantResult is one evaluated assertion in the report.
type InvariantResult struct {
	// Name is the catalog entry.
	Name string `json:"name"`
	// OK reports whether the assertion held.
	OK bool `json:"ok"`
	// Detail explains the verdict with the numbers that decided it.
	Detail string `json:"detail"`
}

// invariantInputs carries the quiescence-time counters the assertions
// are evaluated against; both runners fill one.
type invariantInputs struct {
	submitted int64
	completed int64
	failed    int64
	// conservationLHS/RHS are the two sides of the accounting identity
	// (per-mode meaning documented in the catalog).
	conservationLHS  int64
	conservationRHS  int64
	conservationExpr string
	downAtEnd        int
	// autoscaleOn, peakReady and readyAtEnd feed the elasticity
	// assertions (peakReady is the max workers_ready across samples).
	autoscaleOn bool
	peakReady   int
	readyAtEnd  int
	// routedPerNode is each worker's routed-invocation count (sim mode;
	// nil in live mode, where there is no fleet routing tier).
	routedPerNode []int
	// slo holds the tracker's end-of-run verdicts, keyed by
	// SLOSpec.key(), when the scenario declared slo invariants.
	slo map[string]slo.Status
}

// evalInvariants evaluates the always-on assertions plus the scenario's
// declared extras, deduplicated, in deterministic order.
func evalInvariants(declared []Invariant, in invariantInputs) []InvariantResult {
	checks := []Invariant{{Name: "no-lost-invocations"}, {Name: "conservation"}}
	seen := map[string]bool{"no-lost-invocations": true, "conservation": true}
	for _, inv := range declared {
		key := inv.Name
		if inv.SLO != nil {
			// slo invariants dedupe per objective, not per name: one
			// scenario may bound several functions.
			key += "|" + inv.SLO.key()
		}
		if !seen[key] {
			seen[key] = true
			checks = append(checks, inv)
		}
	}
	out := make([]InvariantResult, 0, len(checks))
	for _, inv := range checks {
		out = append(out, evalInvariant(inv, in))
	}
	return out
}

func evalInvariant(inv Invariant, in invariantInputs) InvariantResult {
	r := InvariantResult{Name: inv.Name}
	switch inv.Name {
	case "no-lost-invocations":
		r.OK = in.submitted == in.completed
		r.Detail = fmt.Sprintf("submitted %d, completed %d", in.submitted, in.completed)
	case "conservation":
		r.OK = in.conservationLHS == in.conservationRHS
		r.Detail = fmt.Sprintf("%s: %d vs %d", in.conservationExpr, in.conservationLHS, in.conservationRHS)
	case "zero-failures":
		r.OK = in.failed == 0
		r.Detail = fmt.Sprintf("%d invocations failed", in.failed)
	case "max-failure-rate":
		rate := 0.0
		if in.submitted > 0 {
			rate = float64(in.failed) / float64(in.submitted)
		}
		r.OK = rate <= inv.Value
		r.Detail = fmt.Sprintf("failure rate %.6f, bound %g", rate, inv.Value)
	case "all-recovered":
		r.OK = in.downAtEnd == 0
		r.Detail = fmt.Sprintf("%d workers still down", in.downAtEnd)
	case "min-peak-ready":
		r.OK = in.autoscaleOn && in.peakReady >= int(inv.Value)
		if !in.autoscaleOn {
			r.Detail = "scenario has no autoscale block"
			break
		}
		r.Detail = fmt.Sprintf("peak ready workers %d, bound %g", in.peakReady, inv.Value)
	case "scaled-to-zero":
		r.OK = in.autoscaleOn && in.readyAtEnd == 0
		if !in.autoscaleOn {
			r.Detail = "scenario has no autoscale block"
			break
		}
		r.Detail = fmt.Sprintf("%d workers still ready at quiescence", in.readyAtEnd)
	case "max-load-cv":
		if in.routedPerNode == nil {
			r.Detail = "no per-worker routing counts (live mode)"
			break
		}
		cv := metrics.LoadCV(in.routedPerNode)
		r.OK = cv <= inv.Value
		r.Detail = fmt.Sprintf("load spread CV %.4f over %d workers, bound %g", cv, len(in.routedPerNode), inv.Value)
	case "slo":
		if inv.SLO == nil {
			r.Detail = "slo invariant without an objective"
			break
		}
		st, ok := in.slo[inv.SLO.key()]
		if !ok {
			r.Detail = fmt.Sprintf("no burn-rate verdict for fn %q", inv.SLO.Function)
			break
		}
		r.OK = !st.Breached
		r.Detail = fmt.Sprintf("fn %s q%g target %v: peak fast burn %.3f, peak slow burn %.3f, bound %g (%d/%d bad)",
			st.Function, st.Quantile, st.Target, st.MaxFastBurn, st.MaxSlowBurn, st.MaxBurn, st.Bad, st.Total)
	default:
		r.OK = false
		r.Detail = "unknown invariant"
	}
	return r
}

// Violations lists the failed invariants of a report body.
func (b *Body) Violations() []InvariantResult {
	var out []InvariantResult
	for _, r := range b.Invariants {
		if !r.OK {
			out = append(out, r)
		}
	}
	return out
}

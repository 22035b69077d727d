package experiment

import "testing"

// The gates below hold at the default seed, whose figure output the
// faasbench golden file pins.

func TestExtDispatchGates(t *testing.T) {
	runs, err := compareDispatch(DefaultOptions().Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The idle fast path removes most of a sparse arrival's window wait.
	if got := sparseSpeedup(runs); got < 10 {
		t.Errorf("sparse sched p50 fixed/adaptive = %.3f, want >= 10", got)
	}
	// DESIGN.md §11's floor: adaptive windows keep a dense burst's batching.
	if got := burstyGroupRatio(runs); got < 0.9 {
		t.Errorf("bursty avg group adaptive/fixed = %.3f, want >= 0.9", got)
	}
}

func TestExtAutoscaleGates(t *testing.T) {
	static, elastic, err := compareAutoscale(DefaultOptions().Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []fleetRun{static, elastic} {
		if r.invocations != 840 || r.completed != r.invocations {
			t.Errorf("%s: %d/%d invocations completed by the horizon, want 840/840", r.label, r.completed, r.invocations)
		}
	}
	if ratio := static.workerSeconds / elastic.workerSeconds; ratio <= 1 {
		t.Errorf("static/elastic worker-seconds = %.3f, want > 1", ratio)
	}
	if elastic.finalReady != 0 {
		t.Errorf("elastic fleet ends with %d ready workers, want 0 (scale to zero)", elastic.finalReady)
	}
}

func TestExtRoutingGates(t *testing.T) {
	hash, pull, err := compareRouting(DefaultOptions().Seed)
	if err != nil {
		t.Fatal(err)
	}
	if pull.p99 >= hash.p99 {
		t.Errorf("pull p99 %v, hash p99 %v: late binding must cut the skewed tail", pull.p99, hash.p99)
	}
	if pull.loadCV >= hash.loadCV {
		t.Errorf("pull load CV %.3f, hash load CV %.3f: late binding must spread load more evenly", pull.loadCV, hash.loadCV)
	}
	for _, r := range []fleetRun{hash, pull} {
		if r.completed != r.invocations {
			t.Errorf("%s lost %d of %d invocations; want 0 despite the worker outage", r.label, r.invocations-r.completed, r.invocations)
		}
	}
}

package router

import (
	"testing"
)

func threeWorkers() []WorkerSpec {
	return []WorkerSpec{
		{ID: "w1", URL: "http://w1"},
		{ID: "w2", URL: "http://w2"},
		{ID: "w3", URL: "http://w3"},
	}
}

func TestNewRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(RegistryConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewRegistry(RegistryConfig{Workers: []WorkerSpec{{ID: "", URL: "http://x"}}}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewRegistry(RegistryConfig{Workers: []WorkerSpec{{ID: "w", URL: ""}}}); err == nil {
		t.Fatal("empty url accepted")
	}
	if _, err := NewRegistry(RegistryConfig{Workers: []WorkerSpec{{ID: "w", URL: "a"}, {ID: "w", URL: "b"}}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestRegistryStartsOptimisticallyUp(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Workers: threeWorkers(), VNodes: 16, MarkDownAfter: 2, MarkUpAfter: 2})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if reg.UpCount() != 3 {
		t.Fatalf("UpCount = %d, want 3", reg.UpCount())
	}
	if st := reg.State("w2"); st != WorkerUp {
		t.Fatalf("State(w2) = %v, want up", st)
	}
	if st := reg.State("nope"); st != 0 {
		t.Fatalf("unknown worker state = %v, want 0", st)
	}
	if url := reg.URL("w3"); url != "http://w3" {
		t.Fatalf("URL(w3) = %q", url)
	}
	if url := reg.URL("nope"); url != "" {
		t.Fatalf("URL(nope) = %q, want empty", url)
	}
}

// TestRegistryMarkDownMarkUp walks the health state machine: mark-down
// needs markDownAfter consecutive failures, mark-up needs markUpAfter
// consecutive successes, and a success in between resets the failure
// streak.
func TestRegistryMarkDownMarkUp(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Workers: threeWorkers(), VNodes: 16, MarkDownAfter: 2, MarkUpAfter: 2})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	// One failure: not yet down.
	if changed, now := reg.NoteResult("w1", false); changed || now != WorkerUp {
		t.Fatalf("first failure: changed=%v now=%v", changed, now)
	}
	// A success resets the streak.
	reg.NoteResult("w1", true)
	reg.NoteResult("w1", false)
	if st := reg.State("w1"); st != WorkerUp {
		t.Fatalf("streak not reset: %v", st)
	}
	// Two consecutive failures: down, ring shrinks.
	if changed, now := reg.NoteResult("w1", false); !changed || now != WorkerDown {
		t.Fatalf("second failure: changed=%v now=%v", changed, now)
	}
	if reg.UpCount() != 2 {
		t.Fatalf("UpCount after mark-down = %d, want 2", reg.UpCount())
	}
	// Further failures cause no further transitions.
	if changed, _ := reg.NoteResult("w1", false); changed {
		t.Fatal("already-down worker transitioned again")
	}
	// One success: still down.
	if changed, now := reg.NoteResult("w1", true); changed || now != WorkerDown {
		t.Fatalf("first recovery: changed=%v now=%v", changed, now)
	}
	// Second consecutive success: back up, ring regrows.
	if changed, now := reg.NoteResult("w1", true); !changed || now != WorkerUp {
		t.Fatalf("second recovery: changed=%v now=%v", changed, now)
	}
	if reg.UpCount() != 3 {
		t.Fatalf("UpCount after mark-up = %d, want 3", reg.UpCount())
	}
	if downs, ups := reg.Transitions(); downs != 1 || ups != 1 {
		t.Fatalf("Transitions = %d/%d, want 1/1", downs, ups)
	}
	// Unknown workers are ignored.
	if changed, now := reg.NoteResult("nope", false); changed || now != 0 {
		t.Fatalf("unknown worker: changed=%v now=%v", changed, now)
	}
}

// TestRegistryRingRebalance is the satellite rebalance assertion: a
// marked-down worker's functions reassign to survivors, functions owned
// by survivors stay put, and mark-up restores the original ownership.
func TestRegistryRingRebalance(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Workers: threeWorkers(), VNodes: 64, MarkDownAfter: 1, MarkUpAfter: 1})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	keys := testKeys(300)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		owner, ok := reg.Owner(k)
		if !ok {
			t.Fatalf("Owner(%q) failed", k)
		}
		before[k] = owner
	}

	// markDownAfter=1: one failure kills w2.
	if changed, now := reg.NoteResult("w2", false); !changed || now != WorkerDown {
		t.Fatalf("mark-down: changed=%v now=%v", changed, now)
	}
	movedToSurvivors := 0
	for _, k := range keys {
		owner, ok := reg.Owner(k)
		if !ok {
			t.Fatalf("Owner(%q) failed after mark-down", k)
		}
		if owner == "w2" {
			t.Fatalf("key %q still owned by down worker", k)
		}
		if before[k] == "w2" {
			movedToSurvivors++
		} else if owner != before[k] {
			t.Errorf("key %q moved %s -> %s though its owner stayed up", k, before[k], owner)
		}
	}
	if movedToSurvivors == 0 {
		t.Fatal("down worker owned no keys; spread is broken")
	}
	// Down workers never appear as candidates.
	for _, k := range keys[:20] {
		for _, c := range reg.Candidates(k, 1.25) {
			if c == "w2" {
				t.Fatalf("down worker in candidates for %q", k)
			}
		}
	}

	// markUpAfter=1: one success restores w2 and the original ownership.
	if changed, now := reg.NoteResult("w2", true); !changed || now != WorkerUp {
		t.Fatalf("mark-up: changed=%v now=%v", changed, now)
	}
	for _, k := range keys {
		owner, _ := reg.Owner(k)
		if owner != before[k] {
			t.Errorf("key %q not restored after mark-up: %s != %s", k, owner, before[k])
		}
	}
}

func TestRegistrySnapshotAndCounters(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Workers: threeWorkers(), VNodes: 16, MarkDownAfter: 2, MarkUpAfter: 2})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	reg.SetCapacity("w1", 8)
	reg.SetCapacity("w1", -1) // ignored
	reg.AddInflight("w1", 2)
	reg.AddInflight("w1", -5) // clamps at zero
	reg.NoteForwarded("w2")
	reg.NoteForwarded("w2")
	reg.NoteForwarded("w3")
	reg.NoteResult("w3", false)

	if got := reg.ForwardedPerWorker(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("ForwardedPerWorker = %v", got)
	}
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatalf("Snapshot not sorted: %v", snap)
		}
	}
	if snap[0].Capacity != 8 || snap[0].Inflight != 0 {
		t.Fatalf("w1 row = %+v", snap[0])
	}
	if snap[1].Forwarded != 2 || snap[2].Failures != 1 {
		t.Fatalf("rows = %+v", snap)
	}
	if snap[0].State != "up" {
		t.Fatalf("State string = %q", snap[0].State)
	}
	if s := WorkerState(9).String(); s != "state(9)" {
		t.Fatalf("unknown state string = %q", s)
	}
}

package router

import (
	"reflect"
	"testing"
)

// memEvent records one membership-hook firing.
type memEvent struct {
	ID     string
	InRing bool
}

// TestOnMembershipHook pins every ring transition that must feed the
// scheduling policy: probe mark-down/up, drain, retire, activate, and
// runtime worker addition — and the transitions that must NOT fire
// (administrative states absorbing probe results, standby removal).
func TestOnMembershipHook(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Workers: []WorkerSpec{
			{ID: "w1", URL: "http://w1.invalid"},
			{ID: "w2", URL: "http://w2.invalid"},
		},
		MarkDownAfter: 2,
		MarkUpAfter:   2,
	})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	var got []memEvent
	reg.OnMembership(func(id string, inRing bool) {
		got = append(got, memEvent{id, inRing})
	})

	reg.NoteResult("w1", false) // 1 failure: no transition
	reg.NoteResult("w1", false) // 2nd: up -> down
	reg.NoteResult("w1", true)  // 1 success: no transition
	reg.NoteResult("w1", true)  // 2nd: down -> up
	reg.Drain("w1")             // up -> draining: leaves ring
	reg.NoteResult("w1", false) // draining absorbs probe results
	reg.NoteResult("w1", false)
	reg.Retire("w1")   // draining -> standby: already out of the ring
	reg.Activate("w1") // standby -> up
	reg.Retire("w2")   // up -> standby: leaves ring
	if err := reg.AddWorker(WorkerSpec{ID: "w3", URL: "http://w3.invalid"}, true); err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	if err := reg.AddWorker(WorkerSpec{ID: "w4", URL: "http://w4.invalid"}, false); err != nil {
		t.Fatalf("AddWorker standby: %v", err)
	}

	want := []memEvent{
		{"w1", false}, // marked down
		{"w1", true},  // marked up
		{"w1", false}, // drained
		{"w1", true},  // activated
		{"w2", false}, // retired while serving
		{"w3", true},  // added active
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("membership events:\ngot  %v\nwant %v", got, want)
	}
}

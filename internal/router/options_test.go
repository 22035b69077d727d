package router

import (
	"net/http"
	"testing"

	"faasbatch/internal/pullsched"
)

// optSpecs is a minimal valid worker set for construction tests.
func optSpecs() []WorkerSpec {
	return []WorkerSpec{{ID: "w1", URL: "http://w1.invalid"}}
}

// TestOptionsApply checks that WithTransport, the one router Option,
// lands in the config New builds from.
func TestOptionsApply(t *testing.T) {
	tr := &http.Transport{}
	rt, err := New(Config{Workers: optSpecs()}, WithTransport(tr))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = rt.Close() }()
	if rt.client.Transport != tr {
		t.Fatal("WithTransport not applied")
	}
}

// TestNewPolicyConfig pins New's policy validation: an unknown policy
// fails, and Config.Pull is rejected unless the policy is PolicyPull
// (TestPullConfigWithMatchingPolicy covers the accepted case).
func TestNewPolicyConfig(t *testing.T) {
	pull := &pullsched.Config{QueueDepth: 3}
	cases := []struct {
		name   string
		cfg    Config
		ok     bool
		policy string
	}{
		{name: "unknown policy", cfg: Config{Policy: "mystery"}},
		{name: "pull config with empty policy", cfg: Config{Pull: pull}},
		{name: "pull config with hash policy", cfg: Config{Policy: PolicyHash, Pull: pull}},
		{name: "empty policy", cfg: Config{}, ok: true, policy: PolicyHash},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = optSpecs()
			rt, err := New(tc.cfg)
			if !tc.ok {
				if err == nil {
					_ = rt.Close()
					t.Fatal("New accepted the config")
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer func() { _ = rt.Close() }()
			if got := rt.Policy().Name(); got != tc.policy {
				t.Fatalf("policy = %q, want %q", got, tc.policy)
			}
		})
	}
}

// TestPullConfigWithMatchingPolicy checks that Config.Pull paired with
// PolicyPull builds a pull router whose queue uses the given depth.
func TestPullConfigWithMatchingPolicy(t *testing.T) {
	rt, err := New(Config{Workers: optSpecs(), Policy: PolicyPull,
		Pull: &pullsched.Config{QueueDepth: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = rt.Close() }()
	if got := rt.Policy().Name(); got != PolicyPull {
		t.Fatalf("policy = %q, want pull", got)
	}
	if d := rt.pullCore().core.Config().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
}

package main

import (
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestParseWorkers(t *testing.T) {
	specs, err := parseWorkers("w1=http://127.0.0.1:8081, w2=http://127.0.0.1:8082/")
	if err != nil {
		t.Fatalf("parseWorkers: %v", err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].ID != "w1" || specs[0].URL != "http://127.0.0.1:8081" {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if specs[1].URL != "http://127.0.0.1:8082" {
		t.Fatalf("trailing slash kept: %+v", specs[1])
	}
	for _, bad := range []string{"", "   ", "w1", "=http://x", "w1=", ",,,"} {
		if _, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{}, // missing -workers
		{"-workers", "w1=http://x", "-chaos-rate", "1.5"},
		{"-workers", "w1=http://x", "-chaos-rate", "-0.1"},
		{"-workers", "w1=http://x", "-log-level", "nope"},
		{"-workers", "bad-spec"},
		{"-workers", "w1=http://x", "-pull-batch", "4"}, // pull tuning needs -policy pull
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestServeUntilSignalShutdown(t *testing.T) {
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(srv, 10*time.Second) }()
	time.Sleep(50 * time.Millisecond)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatalf("FindProcess: %v", err)
	}
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("Signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilSignal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful shutdown never completed")
	}
}

func TestServeUntilSignalListenError(t *testing.T) {
	srv := &http.Server{Addr: "256.256.256.256:99999"}
	if err := serveUntilSignal(srv, time.Second); err == nil {
		t.Fatal("bad address accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenAll pins every figure at -scale 0.05 (default seed) byte for
// byte, minus the wall-clock "done in" footers.
const goldenAll = "testdata/all-scale0.05.golden"

// stripFooters drops the wall-clock footer lines, like grep -v "done in".
func stripFooters(s string) string {
	lines := strings.SplitAfter(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.Contains(l, "done in") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

func TestRunAllMatchesGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "all.txt")
	if err := run([]string{"-run", "all", "-scale", "0.05", "-o", out}); err != nil {
		t.Fatalf("-run all: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	want, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if stripFooters(string(got)) != string(want) {
		t.Fatalf("figure output differs from %s; if the change is intended, regenerate it with\n"+
			"  go run ./cmd/faasbench -run all -scale 0.05 | grep -v \"done in\" > cmd/faasbench/%s",
			goldenAll, goldenAll)
	}
}

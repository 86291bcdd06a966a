package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: stop leaves a non-empty CPU and heap
// profile behind, and a second stop is a no-op.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, %v", p, fi, err)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestStartNoPaths: with both paths empty nothing is written and stop
// succeeds; an uncreatable CPU path fails Start without leaving the
// profiler running.
func TestStartNoPaths(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
	stop, err = Start(filepath.Join(t.TempDir(), "cpu.prof"), "")
	if err != nil {
		t.Fatalf("profiler left running by the failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

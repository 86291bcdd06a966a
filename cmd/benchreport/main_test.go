package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestParseFoldsMinima(t *testing.T) {
	out := `
goos: linux
BenchmarkNetworkCycle-8   	  100	 30000 ns/op	  10 B/op	  2 allocs/op
BenchmarkNetworkCycle-8   	  120	 25000 ns/op	  12 B/op	  2 allocs/op
BenchmarkChipNetworkPacket-8	   50	 40000 ns/op	 800 B/op	 32 allocs/op
PASS
`
	entries, err := parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	// Entries are sorted by name.
	chip, cyc := entries[0], entries[1]
	if chip.Name != "BenchmarkChipNetworkPacket" || cyc.Name != "BenchmarkNetworkCycle" {
		t.Fatalf("entry order: %q, %q", chip.Name, cyc.Name)
	}
	if cyc.Runs != 2 || cyc.NsPerOp != 25000 || cyc.BytesPerOp != 10 || cyc.AllocsPerOp != 2 {
		t.Errorf("NetworkCycle folded to %+v, want per-metric minima", cyc)
	}
	if cyc.Iterations != 120 {
		t.Errorf("Iterations = %d, want the fastest run's 120", cyc.Iterations)
	}
	if chip.Runs != 1 || chip.NsPerOp != 40000 {
		t.Errorf("ChipNetworkPacket folded to %+v", chip)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parse("BenchmarkX-8  notanumber  5 ns/op"); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := parse("BenchmarkX-8  10  bad ns/op"); err == nil {
		t.Error("bad metric value accepted")
	}
}

func TestCompareCleanPass(t *testing.T) {
	base := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 4}}
	fresh := []Entry{{Name: "BenchmarkA", NsPerOp: 1100, BytesPerOp: 110, AllocsPerOp: 4}}
	problems, notes := compare(base, fresh, 0.25)
	if len(problems) != 0 {
		t.Errorf("within-tolerance run flagged: %v", problems)
	}
	if len(notes) != 0 {
		t.Errorf("unexpected notes: %v", notes)
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 0}}
	fresh := []Entry{{Name: "BenchmarkA", NsPerOp: 1300, BytesPerOp: 0, AllocsPerOp: 0}}
	problems, _ := compare(base, fresh, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns/op") {
		t.Errorf("ns/op regression not caught: %v", problems)
	}
}

func TestCompareAllocsExact(t *testing.T) {
	base := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 2}}
	// One extra alloc must fail even though it is within any relative
	// tolerance — allocs/op is machine-independent.
	fresh := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 3}}
	problems, _ := compare(base, fresh, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op") {
		t.Errorf("allocs/op regression not caught: %v", problems)
	}
}

func TestCompareBytesSlackForTinyBaselines(t *testing.T) {
	base := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 1, AllocsPerOp: 0}}
	// 40 B/op over a 1 B/op baseline is within the absolute slack.
	fresh := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 40, AllocsPerOp: 0}}
	problems, _ := compare(base, fresh, 0.25)
	if len(problems) != 0 {
		t.Errorf("tiny-baseline bytes jitter flagged: %v", problems)
	}
	fresh[0].BytesPerOp = 200
	problems, _ = compare(base, fresh, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "B/op") {
		t.Errorf("real B/op regression not caught: %v", problems)
	}
}

func TestStripTimesSkipsNsGateOnly(t *testing.T) {
	entries := []Entry{
		{Name: "BenchmarkNetworkCycle1024Sharded", NsPerOp: 5000, Iterations: 10, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkNetworkCycle", NsPerOp: 1000, Iterations: 99, BytesPerOp: 0, AllocsPerOp: 0},
	}
	stripTimes(entries, regexp.MustCompile("Sharded"))
	if entries[0].NsPerOp != -1 || entries[0].Iterations != 0 {
		t.Errorf("sharded entry time not stripped: %+v", entries[0])
	}
	if entries[1].NsPerOp != 1000 {
		t.Errorf("unmatched entry modified: %+v", entries[1])
	}
	// A -1 ns/op baseline gates allocations but never wall-clock: a run
	// 100× slower passes, one extra alloc fails.
	fresh := []Entry{{Name: "BenchmarkNetworkCycle1024Sharded", NsPerOp: 500000, BytesPerOp: 0, AllocsPerOp: 0}}
	problems, _ := compare(entries[:1], fresh, 0.25)
	if len(problems) != 0 {
		t.Errorf("time-stripped baseline still gated ns/op: %v", problems)
	}
	fresh[0].AllocsPerOp = 1
	problems, _ = compare(entries[:1], fresh, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op") {
		t.Errorf("alloc regression not caught under -notime: %v", problems)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := []Entry{{Name: "BenchmarkGone", NsPerOp: 1000}}
	problems, _ := compare(base, nil, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Errorf("missing benchmark not caught: %v", problems)
	}
}

func TestCompareImprovementIsNoteNotFailure(t *testing.T) {
	base := []Entry{{Name: "BenchmarkA", NsPerOp: 2000, BytesPerOp: 100, AllocsPerOp: 8}}
	fresh := []Entry{{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 10, AllocsPerOp: 2}}
	problems, notes := compare(base, fresh, 0.25)
	if len(problems) != 0 {
		t.Errorf("improvement flagged as regression: %v", problems)
	}
	if len(notes) == 0 {
		t.Error("large improvement produced no baseline-refresh note")
	}
}

func TestMachineLinesFlagMismatch(t *testing.T) {
	a := Machine{GoVersion: "go version go1.24.0 linux/amd64", CPU: "Xeon", NProc: 2, GOMAXPROCS: 2}
	if lines := machineLines(a, a); len(lines) != 2 || !strings.Contains(lines[0], "Xeon") || !strings.Contains(lines[1], "nproc 2") {
		t.Errorf("same machine: %q", lines)
	}
	b := a
	b.NProc = 8
	if lines := machineLines(a, b); len(lines) != 3 || !strings.Contains(lines[2], "differ") {
		t.Errorf("nproc mismatch not flagged: %q", lines)
	}
	// A baseline written before the fingerprint existed records only the
	// Go version; it never matches a fingerprinted host.
	old := Machine{GoVersion: a.GoVersion}
	if lines := machineLines(old, a); len(lines) != 3 || !strings.Contains(lines[0], "host not recorded") {
		t.Errorf("unfingerprinted baseline: %q", lines)
	}
}

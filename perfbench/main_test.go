package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"damq"
)

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in-process and returns its exit code, its
// output and the decoded last line (nil when the last line is not JSON).
func runBench(t *testing.T, args ...string) (int, string, *report) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return code, out.String() + errOut.String(), nil
	}
	return code, out.String() + errOut.String(), &rep
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEmitsEveryMetric runs every workload at a tiny length, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names, with
// their units, and every check passing.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	smoke = true
	t.Cleanup(func() { smoke = false })
	spec := loadSpec(t)
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(specNames, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", specNames, ours)
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			code, out, rep := runBench(t, "--workload", w.name, "--seed", "3", "--seconds", "0",
				"--trace", []string{"0", "1"}[trace], "--out", t.TempDir())
			if code != 0 || rep == nil || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, report %+v\n%s", w.name, trace, code, rep, out)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedFingerprintFails checks that a Result fingerprint that
// differs from the recorded one fails the run.
func TestCorruptedFingerprintFails(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	const w = "sparse-discard-64"
	fp := []byte(golden[w])
	fp[0] ^= 1
	golden[w] = string(fp)
	saved := goldenJSON
	t.Cleanup(func() { goldenJSON = saved })
	var err error
	if goldenJSON, err = json.Marshal(golden); err != nil {
		t.Fatal(err)
	}
	code, out, rep := runBench(t, "--workload", w, "--seconds", "0", "--out", t.TempDir())
	if code != 1 || rep == nil || rep.Correct || rep.Failed != 1 {
		t.Fatalf("corrupted fingerprint: exit %d, report %+v\n%s", code, rep, out)
	}
	if !strings.Contains(out, "check FAILED seed 1 Result fingerprint") {
		t.Errorf("no failed fingerprint check in output:\n%s", out)
	}
}

// TestStepLoopMatchesRun pins the benchmark's Step/Collect loop, including
// the in-loop checkpoint hand-overs, to the Result of an uninterrupted
// damq.RunNetwork.
func TestStepLoopMatchesRun(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(20)
		st := &repSettings{seed: 5, workers: w.workers, observe: w.observe, rs: newRuntimeStats()}
		r, err := runRep(w, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.sim.Close()
		if w.ckptEvery > 0 && r.handoffs == 0 {
			t.Errorf("%s: no checkpoint hand-over ran", w.name)
		}
		res, err := damq.RunNetwork(w.cfg, damq.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.enc, want) || r.handoffFailed != 0 {
			t.Errorf("%s: Step loop Result differs from RunNetwork (%d hand-overs failed)", w.name, r.handoffFailed)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"damq/internal/arbiter.(*Arbiter).arbitrateGeneral", "/x/internal/arbiter/arbiter.go", "arbiter"},
		{"damq/internal/netsim.(*shard).phaseInjectRun", "/x/internal/netsim/netsim.go", "netsim"},
		{"damq/internal/netsim.(*Sim).sampleMetrics", "/x/internal/netsim/observe.go", "obs"},
		{"damq/internal/netsim.(*Sim).Checkpoint", "/x/internal/netsim/checkpoint.go", "checkpoint"},
		{"damq/internal/checkpoint.(*Encoder).U64", "/x/internal/checkpoint/codec.go", "checkpoint"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "", "runtime"},
		{"time.Now", "", "other"},
		{"damq.Checkpoint", "/x/damq.go", "other"},
	} {
		if got := moduleOf(c.fn, c.file); got != c.want {
			t.Errorf("moduleOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

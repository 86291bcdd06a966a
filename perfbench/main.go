// Command perfbench is the repository benchmark. It runs one named
// Omega-network workload through the damq facade and prints, as the last
// line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time per unit
// of simulated work, set-up, memory, checkpoint cost, and the simulated
// statistics); with --trace 1 they are the per-layer ones from a separate
// traced run. Every run also checks the simulator's outputs, and exits 1
// when a check fails. Run it from the repository root through run.sh,
// which builds it:
//
//	bash perfbench/run.sh --workload uniform-blocking-64 --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// defaultSeed is the seed whose Result fingerprints golden.json records.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// smoke, set only by the tests, shrinks every run length 50-fold and
// skips the fingerprint check.
var smoke bool

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts the correctness checks a run made and prints each one.
type checks struct {
	out               io.Writer
	attempted, failed int
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	status := "ok"
	if !ok {
		c.failed++
		status = "FAILED"
	}
	fmt.Fprintf(c.out, "check %-6s %s\n", status, fmt.Sprintf(format, args...))
}

// metricSet collects metrics and prints each as it is set.
type metricSet struct {
	out io.Writer
	m   map[string]metric
}

func (ms *metricSet) set(name string, v float64, unit, note string) {
	ms.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(ms.out, "metric %-36s %.6g %s%s\n", name, v, unit, note)
}

type options struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	out     string
	golden  map[string]string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the benchmark and returns the exit code: 0 when
// every check passed, 1 when one failed, 2 on bad usage or a run error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	secs := fs.Float64("seconds", 10, "how long to measure; sets the fixed repetition count, at least 1")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(stderr, "perfbench: golden.json:", err)
		return 2
	}
	if smoke {
		w = w.scaled(50)
	}
	o := &options{w: w, seed: *seed, seconds: *secs, trace: *trace == 1, out: *out, golden: golden}

	mach := machine()
	keys := make([]string, 0, len(mach))
	for k := range mach {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "machine %-10s %s\n", k, mach[k])
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, o.seed, o.seconds, *trace)

	c := &checks{out: stdout}
	ms := &metricSet{out: stdout, m: map[string]metric{}}
	if o.trace {
		err = traceRun(o, c, ms, mach)
	} else {
		err = benchRun(o, c, ms)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep := report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: ms.m}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if c.failed > 0 {
		return 1
	}
	return 0
}

// scaled returns a copy of w with every run length divided by div.
func (w *workload) scaled(div int64) *workload {
	c := *w
	c.cfg.WarmupCycles = max(1, w.cfg.WarmupCycles/div)
	c.cfg.MeasureCycles = max(4, w.cfg.MeasureCycles/div)
	c.ckptEvery = w.ckptEvery / div
	c.tail = max(1, w.tail/div)
	return &c
}

// checkGolden compares the default-seed fingerprint with the recorded one.
func checkGolden(o *options, c *checks, fp string) {
	want, ok := o.golden[o.w.name]
	c.check(ok && strings.EqualFold(want, fp), "seed %d Result fingerprint %s matches the recorded %q", defaultSeed, fp, want)
}

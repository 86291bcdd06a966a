// Command experiments reruns the entire evaluation — every table and
// figure of the paper — and prints a consolidated report. With -scale
// full it produces the numbers recorded in EXPERIMENTS.md (several
// minutes); -scale quick is a fast smoke version.
//
// Usage:
//
//	experiments -scale full > report.txt
//	experiments -cpuprofile cpu.prof -memprofile mem.prof
//
// -cpuprofile and -memprofile write a CPU profile of the whole report and
// a heap profile at exit, also when an interrupt cuts the report short.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"damq"
	"damq/internal/experiments"
	"damq/internal/netsim"
	"damq/internal/prof"
)

// sections tracks report progress so an interrupt can say how far it got.
var sections, sectionsTotal int

// stopProfiles ends -cpuprofile and writes -memprofile; exit runs it, so
// every exit path that starts after the profiler does records a profile.
var stopProfiles = func() error { return nil }

func main() {
	scaleName := flag.String("scale", "quick", "simulation scale: quick|full")
	skipMarkov := flag.Bool("skip-markov", false, "skip Table 2 (the slowest exact computation)")
	jsonPath := flag.String("json", "", "also write the machine-readable report to this path")
	reps := flag.Int("reps", 0, "replicate the saturation measurement across this many seeds, run concurrently on -workers goroutines (0 = skip)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	metricsPath := flag.String("metrics", "", "run one instrumented over-subscribed DAMQ simulation, write its metrics snapshot (with time series) to this path, and report the Figure-3-style curve recovered from it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole report to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	sc := experiments.Quick
	if *scaleName == "full" {
		sc = experiments.Full
	} else if *scaleName != "quick" {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	sc.Workers = *workers
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	orDie(err)
	stopProfiles = stopProf

	// SIGINT/SIGTERM cancel the remaining experiments cooperatively: the
	// sections already printed stand, and the exit banner reports how far
	// the report got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc.Ctx = ctx

	sectionsTotal = 17
	section := func(title string) {
		sections++
		fmt.Println()
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(title)
		fmt.Println(strings.Repeat("=", 78))
	}

	fmt.Printf("DAMQ reproduction report (scale=%s, seed=%d)\n", *scaleName, sc.Seed)

	section("Experiment E1 — Table 1: virtual cut-through in 4 clock cycles")
	t1, err := experiments.Table1()
	orDie(err)
	fmt.Print(t1.Render())

	var t2 *experiments.Table2Result
	if !*skipMarkov {
		section("Experiment E2 — Table 2: Markov analysis, 2x2 discarding switches")
		t2, err = experiments.Table2(nil, sc.Workers)
		orDie(err)
		fmt.Print(t2.Render())
	}

	section("Companion — 4x4 discarding switch, Monte-Carlo (Table 2 at real radix)")
	s4, err := experiments.Switch4x4(sc.Measure*20, sc.Seed, sc.Workers)
	orDie(err)
	fmt.Print(experiments.RenderSwitch4(s4))

	section("Experiment E3 — Table 3: discarding network, uniform traffic")
	t3, err := experiments.Table3(sc)
	orDie(err)
	fmt.Print(t3.Render())

	section("Experiment E4 — Figure 3: latency vs throughput (FIFO vs DAMQ, 4 slots)")
	fig, err := experiments.Figure3([]damq.BufferKind{damq.FIFO, damq.DAMQ}, 4, nil, sc)
	orDie(err)
	fmt.Print(experiments.RenderFigure3(fig))

	section("Experiment E5 — Table 4: blocking network latencies, 4 slots")
	t4, err := experiments.Table4(sc)
	orDie(err)
	fmt.Print(experiments.RenderLatencyRows(
		"Table 4: average latency (clocks) for given load, 4 slots/buffer, blocking, uniform", t4))
	fmt.Println()
	tail, err := experiments.TailLatency(0.45, sc)
	orDie(err)
	fmt.Print(experiments.RenderTail(tail))

	section("Experiment E6 — Table 5: varying slots per buffer (FIFO vs DAMQ)")
	t5, err := experiments.Table5(sc)
	orDie(err)
	fmt.Print(experiments.RenderLatencyRows(
		"Table 5: average latency varying slots/buffer, blocking, uniform", t5))

	section("Experiment E7 — Table 6: 5% hot-spot traffic")
	t6, err := experiments.Table6(sc)
	orDie(err)
	fmt.Print(experiments.RenderTable6(t6))
	fmt.Println()
	ts, err := experiments.TreeSaturation(sc)
	orDie(err)
	fmt.Print(experiments.RenderTreeSat(ts))

	section("Experiment E8 — extension: variable-length packets")
	vl, err := experiments.VarLen(sc)
	orDie(err)
	fmt.Print(experiments.RenderVarLen(vl))

	section("Experiment E9 — extension: asynchronous arrivals (event-driven)")
	as, err := experiments.Async(sc)
	orDie(err)
	fmt.Print(experiments.RenderAsync(as))

	section("Companion — central-pool hogging (§2's rejected design)")
	hog, err := experiments.Hogging(sc)
	orDie(err)
	fmt.Print(experiments.RenderHogging(hog))

	section("Companion — graceful degradation under injected link faults")
	fcv, err := experiments.FaultCurve(nil, nil, sc)
	orDie(err)
	fmt.Print(experiments.RenderFaultCurve(fcv))

	section("Companion — radix sweep: DAMQ/FIFO gap vs switch size")
	rx, err := experiments.RadixSweep(sc)
	orDie(err)
	fmt.Print(experiments.RenderRadix(rx))

	section("Ablation A1 — read connectivity x allocation (DAFC)")
	conn, err := experiments.AblationConnectivity(sc)
	orDie(err)
	fmt.Print(experiments.RenderConnectivity(conn))

	section("Ablation A2 — smart vs dumb arbitration")
	arb, err := experiments.AblationArbitration(sc)
	orDie(err)
	fmt.Print(experiments.RenderArbitration(arb))

	section("Ablation A3 — burstiness (multi-packet messages)")
	burst, err := experiments.AblationBurstiness(sc)
	orDie(err)
	fmt.Print(experiments.RenderBurstiness(burst))

	section("Ablation A4 — Markov solvers and mixing times")
	solver, err := experiments.AblationSolver(time.Now)
	orDie(err)
	fmt.Print(experiments.RenderSolver(solver))

	if *metricsPath != "" {
		section("Companion — Figure 3 from one instrumented run (observer time series)")
		interval := sc.Measure / 100
		if interval < 1 {
			interval = 1
		}
		// Over-subscribed blocking DAMQ run with no warmup: the ramp from
		// empty network to saturation sweeps through every operating point
		// Figure 3 samples one load at a time.
		_, snap, err := experiments.InstrumentedRun(netsim.Config{
			BufferKind:    damq.DAMQ,
			Capacity:      4,
			Policy:        damq.SmartArbitration,
			Protocol:      damq.Blocking,
			Traffic:       netsim.TrafficSpec{Kind: netsim.Uniform, Load: 1.0},
			WarmupCycles:  1,
			MeasureCycles: sc.Warmup + sc.Measure,
			Seed:          sc.Seed,
		}, interval)
		orDie(err)
		curve := experiments.CurveFromIntervals("DAMQ/4 (one run)", 64, snap.Series)
		fmt.Print(experiments.RenderFigure3([]damq.Figure3Series{curve}))
		raw, err := snap.Encode()
		orDie(err)
		orDie(os.WriteFile(*metricsPath, raw, 0o644))
		fmt.Printf("\nmetrics snapshot written to %s\n", *metricsPath)
	}

	if *reps > 0 {
		section(fmt.Sprintf("Replication — saturation throughput across %d seeds", *reps))
		ci, err := experiments.SaturationCI(*reps, sc)
		orDie(err)
		fmt.Print(experiments.RenderCI(ci))
	}

	if *jsonPath != "" {
		rep := &experiments.Report{
			Scale: sc, Table3: t3, Table4: t4, Table5: t5, Table6: t6,
			Table1: t1, VarLen: vl, Async: as, TreeSat: ts,
			Ablate: &experiments.AblationSection{
				Connectivity: conn, Arbitration: arb, Burstiness: burst,
			},
		}
		if !*skipMarkov {
			rep.Table2 = t2
		}
		raw, err := rep.JSON()
		orDie(err)
		orDie(os.WriteFile(*jsonPath, raw, 0o644))
		fmt.Printf("\nJSON report written to %s\n", *jsonPath)
	}
	exit(0)
}

func orDie(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "experiments: interrupted at %d/%d sections; the report above covers the completed ones\n",
			sections, sectionsTotal)
		exit(130)
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	exit(1)
}

// exit finishes the profiles and ends the process with code (1 if a
// profile could not be written on an otherwise clean exit).
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

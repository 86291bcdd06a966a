// Command omegasim runs the paper's Omega-network experiments.
//
// Usage:
//
//	omegasim -exp table3            # Table 3 (discarding, uniform)
//	omegasim -exp table4            # Table 4 (blocking latencies)
//	omegasim -exp table5            # Table 5 (slot-count sweep)
//	omegasim -exp table6            # Table 6 (hot spot)
//	omegasim -exp figure3           # Figure 3 (latency vs throughput)
//	omegasim -exp modern            # 1988 vs 2026 sharing policies
//	omegasim -exp varlen            # variable-length extension
//	omegasim -exp async             # asynchronous event-driven extension
//	omegasim -exp async -packets 200000       # ~200k delivered packets/point
//	omegasim -exp run -kind damq -load 0.6 -protocol blocking  # one run
//	omegasim -exp run -kind dt:alpha=0.5 -shared -protocol discarding  # pooled switch
//	omegasim -exp run -inputs 1024 -workers 8                  # sharded 1024×1024
//	omegasim -exp run -checkpoint-every 500 -checkpoint-file run.ckpt  # crash-safe snapshots
//	omegasim -exp run -resume run.ckpt                         # continue after a kill
//
// -scale quick|full selects run length (full is what EXPERIMENTS.md
// records; quick is a fast smoke version). -workers parallelizes: for
// sweeps it fans points out across cores; for -exp run it shards the
// single network's stages across cores, stepping them in lock-step
// phases — either way the results are byte-identical at any count.
//
// With -exp run, -metrics <file> attaches an observer and writes its
// JSON snapshot (per-stage occupancy, per-queue depth, discard/block
// counters, latency histograms); -metrics-interval N adds a cumulative
// time series every N cycles. -check-metrics <file> validates a
// previously written snapshot and exits — the CI smoke check.
//
// -checkpoint-file <file> makes -exp run crash-safe: the simulation state
// is saved atomically every -checkpoint-every cycles (or only on
// interrupt when that is 0), and SIGINT/SIGTERM drain the current cycle
// and write a final checkpoint before exiting 130. -resume <file>
// continues such a run from exactly where it stopped; the resumed run's
// results are byte-identical to never having been interrupted, at any
// -workers count.
//
// -cpuprofile <file> and -memprofile <file> write a CPU profile of the
// whole command and a heap profile at exit (go tool pprof reads both);
// they are written on normal exit and on the interrupt path too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"damq"
	"damq/internal/checkpoint"
	"damq/internal/experiments"
	"damq/internal/plot"
	"damq/internal/prof"
)

// stopProfiles ends -cpuprofile and writes -memprofile; exit runs it, so
// every exit path that starts after the profiler does records a profile.
var stopProfiles = func() error { return nil }

func main() {
	exp := flag.String("exp", "table4",
		"experiment: table3|table4|table5|table6|figure3|modern|varlen|async|treesat|tail|switch4|radix|ablation|faults|run")
	svgPath := flag.String("svg", "", "figure3/modern: also write an SVG figure to this path")
	scaleName := flag.String("scale", "quick", "simulation scale: quick|full")
	kind := flag.String("kind", "damq", `run: buffer kind, optionally with sharing knobs ("dt:alpha=0.5,classes=4")`)
	shared := flag.Bool("shared", false, "run: pool all of a switch's input buffers into one shared storage group")
	load := flag.Float64("load", 0.5, "run: offered load")
	inputs := flag.Int("inputs", 0, "run: network size (ports per side, power of the radix; 0 = the paper's 64)")
	capacity := flag.Int("capacity", 4, "run: slots per input buffer")
	protocol := flag.String("protocol", "blocking", "run: blocking|discarding")
	policy := flag.String("policy", "smart", "run: smart|dumb arbitration")
	hot := flag.Float64("hot", 0, "run: hot-spot fraction (0 = uniform)")
	seed := flag.Uint64("seed", 1988, "run: PRNG seed")
	packets := flag.Int64("packets", 0, "async: size each point's measurement window to deliver ~this many packets (0 = -scale's cycle spans)")
	workers := flag.Int("workers", 0, "parallelism: concurrent simulations for sweeps, shard workers stepping the one network for -exp run (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	metricsPath := flag.String("metrics", "", "run: attach an observer and write its JSON snapshot to this path")
	metricsInterval := flag.Int64("metrics-interval", 0, "run: record a cumulative time-series point every N cycles in the -metrics snapshot (0 = off)")
	checkMetrics := flag.String("check-metrics", "", "validate a -metrics JSON file and exit (CI smoke check)")
	faultsSpec := flag.String("faults", "", `run/faults: fault spec, e.g. "linktransient=1e-3,slotstuck=1e-5,seed=7" (see damq.ParseFaultSpec)`)
	ckptEvery := flag.Int64("checkpoint-every", 0, "run: save a checkpoint to -checkpoint-file after every N cycles (0 = only on interrupt)")
	ckptFile := flag.String("checkpoint-file", "", "run: checkpoint path, written atomically (temp file, fsync, rename) so a kill mid-save never corrupts it")
	resumePath := flag.String("resume", "", "run: resume from this checkpoint instead of starting fresh; topology, seed, progress, and fault schedule come from the file (-workers and -metrics still apply)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})

	if *checkMetrics != "" {
		raw, err := os.ReadFile(*checkMetrics)
		orDie(err)
		orDie(damq.ValidateMetricsJSON(raw))
		fmt.Printf("%s: valid network metrics snapshot\n", *checkMetrics)
		return
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	orDie(err)
	stopProfiles = stopProf

	sc := experiments.Quick
	switch *scaleName {
	case "quick":
	case "full":
		sc = experiments.Full
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	sc.Seed = *seed
	sc.Workers = *workers

	// SIGINT/SIGTERM cancel the scale context: running sweeps drain their
	// in-flight points and return what they finished; a second signal
	// kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sc.Ctx = ctx

	switch *exp {
	case "table3":
		res, err := experiments.Table3(sc)
		orDie(err)
		fmt.Print(res.Render())
	case "table4":
		rows, err := experiments.Table4(sc)
		orDie(err)
		fmt.Print(experiments.RenderLatencyRows(
			"Table 4: average latency (clocks) for given load, 4 slots/buffer, blocking, uniform", rows))
	case "table5":
		rows, err := experiments.Table5(sc)
		orDie(err)
		fmt.Print(experiments.RenderLatencyRows(
			"Table 5: average latency varying slots/buffer, blocking, uniform", rows))
	case "table6":
		rows, err := experiments.Table6(sc)
		orDie(err)
		fmt.Print(experiments.RenderTable6(rows))
	case "figure3":
		series, err := experiments.Figure3([]damq.BufferKind{damq.FIFO, damq.DAMQ}, 4, nil, sc)
		orDie(err)
		fmt.Print(experiments.RenderFigure3(series))
		if *svgPath != "" {
			svg := plot.SVG(series, plot.Options{
				Title: "Figure 3: FIFO vs DAMQ, 4 slots, uniform traffic, blocking",
			})
			orDie(os.WriteFile(*svgPath, []byte(svg), 0o644))
			fmt.Printf("\nSVG figure written to %s\n", *svgPath)
		}
	case "modern":
		series, err := experiments.Modern(nil, 4, nil, sc)
		orDie(err)
		fmt.Print(experiments.RenderModern(series))
		if *svgPath != "" {
			svg := plot.SVG(series, plot.Options{
				Title: "1988 vs 2026: DAMQ vs DT/FB/BSHARE, 4 slots, uniform traffic, discarding",
			})
			orDie(os.WriteFile(*svgPath, []byte(svg), 0o644))
			fmt.Printf("\nSVG figure written to %s\n", *svgPath)
		}
	case "ablation":
		conn, err := experiments.AblationConnectivity(sc)
		orDie(err)
		fmt.Print(experiments.RenderConnectivity(conn))
		fmt.Println()
		arb, err := experiments.AblationArbitration(sc)
		orDie(err)
		fmt.Print(experiments.RenderArbitration(arb))
		fmt.Println()
		burst, err := experiments.AblationBurstiness(sc)
		orDie(err)
		fmt.Print(experiments.RenderBurstiness(burst))
		fmt.Println()
		solver, err := experiments.AblationSolver(time.Now)
		orDie(err)
		fmt.Print(experiments.RenderSolver(solver))
	case "varlen":
		rows, err := experiments.VarLen(sc)
		orDie(err)
		fmt.Print(experiments.RenderVarLen(rows))
	case "async":
		rows, err := experiments.AsyncPackets(sc, *packets)
		orDie(err)
		fmt.Print(experiments.RenderAsync(rows))
	case "treesat":
		rows, err := experiments.TreeSaturation(sc)
		orDie(err)
		fmt.Print(experiments.RenderTreeSat(rows))
	case "tail":
		rows, err := experiments.TailLatency(0.45, sc)
		orDie(err)
		fmt.Print(experiments.RenderTail(rows))
	case "switch4":
		rows, err := experiments.Switch4x4(sc.Measure*20, sc.Seed, sc.Workers)
		orDie(err)
		fmt.Print(experiments.RenderSwitch4(rows))
	case "radix":
		rows, err := experiments.RadixSweep(sc)
		orDie(err)
		fmt.Print(experiments.RenderRadix(rows))
	case "faults":
		var rates []float64
		if *faultsSpec != "" {
			fc, err := damq.ParseFaultSpec(*faultsSpec)
			orDie(err)
			if fc.LinkTransientRate > 0 {
				rates = []float64{0, fc.LinkTransientRate}
			}
		}
		rows, err := experiments.FaultCurve(nil, rates, sc)
		orDie(err)
		fmt.Print(experiments.RenderFaultCurve(rows))
	case "run":
		runOne(ctx, *kind, *shared, *load, *inputs, *capacity, *protocol, *policy, *hot, sc, workersSet, *metricsPath, *metricsInterval, *faultsSpec,
			*ckptEvery, *ckptFile, *resumePath)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	exit(0)
}

func runOne(ctx context.Context, kindName string, shared bool, load float64, inputs, capacity int, protoName, policyName string, hot float64, sc experiments.Scale, workersSet bool, metricsPath string, metricsInterval int64, faultsSpec string, ckptEvery int64, ckptFile, resumePath string) {
	if ckptEvery > 0 && ckptFile == "" {
		fatal(errors.New("-checkpoint-every requires -checkpoint-file"))
	}
	var observer *damq.Observer
	var opts []damq.Option
	if workersSet {
		// For a single run the workers knob means intra-run sharding: the
		// one network is stepped across cores, byte-identically.
		opts = append(opts, damq.WithWorkers(sc.Workers))
	}
	if metricsPath != "" {
		observer = damq.NewObserver()
		observer.SetInterval(metricsInterval)
		opts = append(opts, damq.WithObserver(observer))
	}

	var sim *damq.NetworkSim
	var faults damq.FaultConfig
	if resumePath != "" {
		// The checkpoint carries the topology, seed, progress, and fault
		// schedule; only the execution knobs above may be re-chosen.
		if faultsSpec != "" {
			fatal(errors.New("-faults cannot be combined with -resume: the fault schedule is part of the checkpoint"))
		}
		f, err := os.Open(resumePath)
		orDie(err)
		sim, err = damq.Restore(f, opts...)
		f.Close()
		orDie(err)
	} else {
		kind, sharing, err := damq.ParseBufferSpec(kindName)
		orDie(err)
		pol, err := damq.ParseArbitrationPolicy(policyName)
		orDie(err)
		proto, err := damq.ParseProtocol(protoName)
		orDie(err)
		spec := damq.TrafficSpec{Kind: damq.UniformTraffic, Load: load}
		if hot > 0 {
			spec = damq.TrafficSpec{Kind: damq.HotSpotTraffic, Load: load, HotFraction: hot}
		}
		if faultsSpec != "" {
			faults, err = damq.ParseFaultSpec(faultsSpec)
			orDie(err)
			opts = append(opts, damq.WithFaults(faults))
		}
		sim, err = damq.NewNetwork(damq.NetworkConfig{
			Inputs:        inputs,
			BufferKind:    kind,
			Capacity:      capacity,
			Policy:        pol,
			Protocol:      proto,
			Traffic:       spec,
			WarmupCycles:  sc.Warmup,
			MeasureCycles: sc.Measure,
			Seed:          sc.Seed,
			SharedPool:    shared,
			Sharing:       sharing,
		}, opts...)
		orDie(err)
	}
	defer sim.Close()

	var save func() error
	if ckptFile != "" {
		save = func() error { return checkpoint.WriteFile(ckptFile, sim.Checkpoint) }
	}
	targetCycles := sim.Config().MeasureCycles
	res, err := sim.RunCtxCheckpoint(ctx, ckptEvery, save)
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		orDie(err)
	}
	if observer != nil {
		raw, err := observer.Snapshot().Encode()
		orDie(err)
		orDie(os.WriteFile(metricsPath, raw, 0o644))
		fmt.Printf("metrics snapshot written to %s\n", metricsPath)
	}
	cfg := res.Config // the resolved config: flag-derived or checkpointed
	poolNote := ""
	if cfg.SharedPool {
		poolNote = ", switch-wide shared pool"
	}
	fmt.Printf("buffer              %v (%d slots%s)\n", cfg.BufferKind, cfg.Capacity, poolNote)
	fmt.Printf("protocol            %v, %v arbitration\n", cfg.Protocol, cfg.Policy)
	fmt.Printf("offered load        %.3f\n", res.OfferedLoad())
	fmt.Printf("throughput          %.3f packets/input/cycle\n", res.Throughput())
	fmt.Printf("latency (born)      %.1f clocks (±%.1f)\n", res.LatencyFromBorn.Mean(), res.LatencyFromBorn.CI95())
	fmt.Printf("latency (injected)  %.1f clocks\n", res.LatencyFromInjection.Mean())
	fmt.Printf("discarded           %.2f%% of generated\n", 100*res.DiscardFraction())
	fmt.Printf("mean occupancy      %.2f packets/switch\n", res.Occupancy.Mean())
	fmt.Printf("source backlog      %.1f packets\n", res.SourceBacklog.Mean())
	if faults.Enabled() || res.FaultedInNet > 0 {
		fmt.Printf("faulted in net      %.2f%% of injected (%d packets)\n", 100*res.FaultFraction(), res.FaultedInNet)
	}
	if ckptFile != "" && !interrupted && ckptEvery > 0 {
		fmt.Printf("checkpoints written to %s\n", ckptFile)
	}
	if interrupted {
		fmt.Printf("interrupted at %d/%d measured cycles; results above cover the completed prefix\n",
			res.Config.MeasureCycles, targetCycles)
		if ckptFile != "" {
			fmt.Printf("checkpoint saved to %s; continue with: omegasim -exp run -resume %s\n", ckptFile, ckptFile)
		}
		exit(130)
	}
}

func orDie(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "omegasim: interrupted before the experiment completed")
		exit(130)
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "omegasim:", err)
	exit(1)
}

// exit finishes the profiles and ends the process with code (1 if a
// profile could not be written on an otherwise clean exit).
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "omegasim:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

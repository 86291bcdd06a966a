package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"damq"
)

// profiledModules are the layers whose self time the traced run reports,
// named after the repository's packages (see moduleOf).
var profiledModules = []string{
	"arbiter", "sw", "buffer", "netsim", "traffic", "rng", "stats", "pktq",
	"packet", "omega", "obs", "parallel", "checkpoint", "runtime",
}

// replayCycles is the length of the switch-level replay.
const replayCycles = 20000

// maxSpans bounds the traced run's in-memory span log; later spans are
// counted but not kept.
const maxSpans = 1 << 18

// traceRun is the traced run. It first repeats the workload once as the
// untraced run does, then repeats it with one worker, an observer, spans
// around every facade call and the CPU profiler on, as many times as the
// untraced run does. Every traced Result must equal the untraced one.
func traceRun(o *options, c *checks, ms *metricSet, mach map[string]string) error {
	w := o.w
	rs := newRuntimeStats()

	runtime.GC()
	refSteps := make([]float64, w.cycles())
	ref, err := runRep(w, &repSettings{seed: o.seed, workers: w.workers, observe: w.observe, stepNs: refSteps, rs: rs}, 0)
	if err != nil {
		return err
	}
	ref.sim.Close()
	if o.seed == defaultSeed && !smoke {
		checkGolden(o, c, fingerprint(ref.enc))
	}
	untracedNs := float64(ref.work) / float64(w.cycles())

	runID := fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, time.Now().UnixNano())
	tr := newTracer(runID, maxSpans)
	stepNs := make([]float64, w.cycles())
	st := &repSettings{seed: o.seed, workers: 1, observe: true, tr: tr, stepNs: stepNs, rs: rs}

	runtime.GC()
	var prof bytes.Buffer
	cpu0 := cpuTime()
	gc0 := rs.gcCycles()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var last *repOut
	var work time.Duration
	var cycles int64
	var saves, restores, warmups []float64
	reps := 0
	for n := w.reps(o.seconds); reps < n; {
		root := tr.begin("rep", 0)
		r, err := runRep(w, st, root)
		tr.end(root, 1)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		reps++
		warmups = append(warmups, median(stepNs[:w.cfg.WarmupCycles]))
		work += r.work
		cycles += w.cycles()
		for i := range r.saves {
			saves = append(saves, millis(r.saves[i]))
			restores = append(restores, millis(r.restores[i]))
		}
		c.check(bytes.Equal(r.enc, ref.enc), "traced rep %d (1 worker, observed) matches the untraced Result (%d workers, observed=%v)", reps, w.workers, w.observe)
		if r.handoffs > 0 {
			c.check(r.handoffFailed == 0, "traced rep %d: %d in-loop checkpoint hand-overs keep the Result", reps, r.handoffs)
		}
		if last != nil {
			last.sim.Close()
		}
		last = r
	}
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0
	gc1 := rs.gcCycles()
	defer last.sim.Close()
	tracedNs := float64(work) / float64(cycles)

	self, samples, err := selfByModule(prof.Bytes())
	if err != nil {
		return err
	}
	var profiled int64
	for _, ns := range self {
		profiled += ns
	}
	// The profiler takes one sample per 10 ms of CPU time, so its total
	// is a count with Poisson error; allow four standard deviations.
	tol := 4/math.Sqrt(float64(max(samples, 1))) + 0.05
	// A run shorter than one sampling period is compared against one period.
	dev := math.Abs(float64(profiled)-float64(cpu)) / math.Max(float64(cpu), float64(10*time.Millisecond))
	c.check(dev <= tol, "profile attributes %.0f of %.0f CPU ns per cycle (off by %.1f%%, tolerance %.1f%%, %d samples)",
		float64(profiled)/float64(cycles), float64(cpu)/float64(cycles), 100*dev, 100*tol, samples)

	snap := last.observer.Snapshot()
	cnt := func(name string) float64 { v, _ := snap.Counter(name); return float64(v) }
	grants, conflicts, blocked := cnt("sw.grants"), cnt("sw.conflicts"), cnt("sw.blocked_heads")
	refused := cnt("sw.offer_refused")
	perCycle := float64(w.cycles())

	var snaps []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		last.observer.Snapshot()
		snaps = append(snaps, millis(time.Since(t)))
	}

	ct, restored, _, err := timeCheckpoint(w, st, last.sim, 5, 0)
	if err != nil {
		return err
	}
	defer restored.Close()
	c.check(ct.repeatable && continueBoth(w, last.sim, restored),
		"checkpoint round trip: re-saves repeat %d bytes, the restored run continues %d cycles identically", ct.bytes, w.tail)
	if len(saves) == 0 {
		for i := range ct.saves {
			saves = append(saves, millis(ct.saves[i]))
			restores = append(restores, millis(ct.restores[i]))
		}
	}

	n := replayCycles
	if smoke {
		n /= 50
	}
	rep, err := replaySwitch(w, o.seed, n, tr, 0)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := tr.flush(base+".spans.jsonl", mach); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "trace %s: %d spans (%d dropped) in %s.spans.jsonl, profile in %s.cpu.pprof\n", runID, len(tr.spans), tr.dropped, base, base)

	for _, m := range profiledModules {
		ms.set(m+".self_ns_per_cycle", float64(self[m])/float64(cycles), "ns", "")
	}
	fmt.Fprintf(c.out, "self other %.0f ns/cycle, fault %.0f ns/cycle (not layers of the Step loop)\n",
		float64(self["other"])/float64(cycles), float64(self["fault"])/float64(cycles))
	ms.set("arbiter.grants_per_cycle", grants/perCycle, "grants", "")
	ms.set("arbiter.conflicts_per_cycle", conflicts/perCycle, "conflicts", "")
	ms.set("arbiter.blocked_heads_per_cycle", blocked/perCycle, "heads", "")
	ms.set("arbiter.grant_ratio", ratio(grants, grants+conflicts+blocked), "ratio", "")
	ms.set("sw.offer_refused_per_cycle", refused/perCycle, "offers", "")
	ms.set("sw.offer_ns", rep.offerNs, "ns", "switch replay")
	ms.set("sw.arbitrate_ns", rep.arbitrateNs, "ns", "switch replay")
	ms.set("sw.popgrant_ns", rep.popGrantNs, "ns", "switch replay")
	ms.set("buffer.policy_refused_per_cycle", cnt("net.policy.refused")/perCycle, "packets", "")
	ms.set("buffer.admit_ratio", ratio(grants, grants+refused), "ratio", "grants over grants plus refused offers")
	ms.set("buffer.pool_slots_used_mean", poolSlotsUsed(snap, w), "slots", "")

	res := last.res
	ms.set("netsim.new_ms", millis(medianSpan(tr, "damq.NewNetwork")), "ms", "")
	refMeasured := refSteps[w.cfg.WarmupCycles:]
	ms.set("netsim.step_us_p50", median(refMeasured)/1e3, "us",
		fmt.Sprintf("%d measured Steps of the untraced reference rep", len(refMeasured)))
	ms.set("netsim.step_us_p99", quantile(refMeasured, 0.99)/1e3, "us",
		fmt.Sprintf("%d beyond p99", len(refMeasured)/100))
	ms.set("netsim.step_warmup_us_p50", median(warmups)/1e3, "us",
		fmt.Sprintf("%d Steps per rep, median over %d reps", w.cfg.WarmupCycles, reps))
	ms.set("netsim.collect_ms", millis(medianSpan(tr, "NetworkSim.Collect")), "ms", "")
	ms.set("netsim.ns_per_switch_cycle", tracedNs/float64(w.switches()), "ns", fmt.Sprintf("%d switches", w.switches()))
	ms.set("netsim.occupancy_mean", res.Occupancy.Mean(), "packets", "")
	ms.set("netsim.source_backlog_mean", res.SourceBacklog.Mean(), "packets", "")
	ms.set("obs.snapshot_ms", median(snaps), "ms", "")
	ms.set("checkpoint.save_ms", median(saves), "ms", fmt.Sprintf("median of %d", len(saves)))
	ms.set("checkpoint.restore_ms", median(restores), "ms", fmt.Sprintf("median of %d", len(restores)))
	ms.set("checkpoint.save_allocs", float64(ct.saveAllocs), "allocs", "")
	ms.set("checkpoint.restore_allocs", float64(ct.restoreAllocs), "allocs", "")
	ms.set("checkpoint.save_mb_per_s", float64(ct.bytes)/(1<<20)/(median(saves)/1e3), "MiB/s", fmt.Sprintf("%d bytes", ct.bytes))
	ms.set("runtime.allocs_per_cycle", float64(ref.allocs)/float64(w.cfg.MeasureCycles), "allocs",
		"untraced rep, measure window, checkpoint calls excluded")
	ms.set("runtime.gc_cycles", float64(gc1-gc0), "count", "during the traced loop")
	ms.set("trace.overhead_frac", tracedNs/untracedNs-1, "ratio",
		fmt.Sprintf("%.0f traced vs %.0f untraced ns/cycle", tracedNs, untracedNs))
	ms.set("trace.cpu_samples", float64(samples), "count", "")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolSlotsUsed is the mean occupied slot count of a storage pool: the
// pool-occupancy histogram where the run registers it (modern policies
// and shared pools), else mean queue depth times the queues per buffer.
func poolSlotsUsed(snap *damq.MetricsSnapshot, w *workload) float64 {
	if h, ok := snap.Histogram("net.pool.slots_used"); ok {
		return h.Mean()
	}
	if h, ok := snap.Histogram("net.queue.depth"); ok {
		return h.Mean() * float64(w.cfg.Radix)
	}
	return 0
}

// medianSpan is the median duration of the kept spans named name.
func medianSpan(t *tracer, name string) time.Duration {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start))
		}
	}
	return time.Duration(median(xs))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

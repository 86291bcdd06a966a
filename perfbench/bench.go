package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// extraSetups is how many networks are built and closed before each
// repetition, beside the repetition's own, for more setup_s samples.
const extraSetups = 3

// benchRun is the untraced run. It runs the workload a fixed number of
// times (w.reps), each from a fresh network with the same seed, and
// reports the end-to-end metrics. Each repetition yields its own loop
// time, and sim_cycles_per_s comes from the shortest: every repetition
// does the same simulated work, so other work on a shared host can only
// lengthen a repetition, and the best one is the one it disturbed least.
// The median over repetitions, and each repetition's Step p50 and p99,
// are printed beside it.
func benchRun(o *options, c *checks, ms *metricSet) error {
	w := o.w
	rs := newRuntimeStats()
	stepNs := make([]float64, w.cycles())
	st := &repSettings{seed: o.seed, workers: w.workers, observe: w.observe, stepNs: stepNs, rs: rs}

	// The live heap is sampled in an untimed repetition, sampled through
	// the run and at every in-loop hand-over. It runs first, while no other
	// simulation exists: a closed simulation's workers exit asynchronously
	// and could keep it live into the baseline.
	hp := newHeapProbe(rs, int(w.cycles()/64))
	ref, err := runRep(w, &repSettings{seed: o.seed, workers: w.workers, observe: w.observe, heap: hp, rs: rs}, 0)
	if err != nil {
		return err
	}
	ref.sim.Close()
	if ref.handoffs > 0 {
		c.check(ref.handoffFailed == 0, "heap-sampled rep: %d in-loop checkpoint hand-overs keep the Result (%d differ)", ref.handoffs, ref.handoffFailed)
	}

	n := w.reps(o.seconds)
	var ckptBytes int
	var setups, loops, p50s, p99s []float64
	var allocs uint64
	for rep := 1; rep <= n; rep++ {
		for i := 0; i < extraSetups; i++ {
			t := time.Now()
			sim, _, err := newSim(w, st, 0)
			if err != nil {
				return err
			}
			setups = append(setups, seconds(time.Since(t)))
			sim.Close()
		}
		// Garbage of earlier repetitions is not collected inside this one.
		runtime.GC()
		r, err := runRep(w, st, 0)
		if err != nil {
			return err
		}
		measured := stepNs[w.cfg.WarmupCycles:]
		loops = append(loops, float64(r.work))
		p50s = append(p50s, quantile(measured, 0.5))
		p99s = append(p99s, quantile(measured, 0.99))
		fmt.Fprintf(c.out, "rep %d: %.0f cycles/s, Step p50 %.2f us, p99 %.2f us, setup %.3f ms\n",
			rep, float64(w.cycles())/r.work.Seconds(), p50s[rep-1]/1e3, p99s[rep-1]/1e3, millis(r.setup))
		setups = append(setups, seconds(r.setup))
		allocs += r.allocs
		if r.handoffs > 0 {
			c.check(r.handoffFailed == 0, "rep %d: %d in-loop checkpoint hand-overs keep the Result (%d differ)", rep, r.handoffs, r.handoffFailed)
		}
		c.check(bytes.Equal(ref.enc, r.enc), "rep %d repeats the heap-sampled rep's Result", rep)
		if rep < n {
			r.sim.Close()
			continue
		}
		// The last repetition's end state is saved twice, which must give
		// the same bytes, and restored; the copy must then continue as
		// the original does.
		ct, restored, _, err := timeCheckpoint(w, st, r.sim, 2, 0)
		if err != nil {
			r.sim.Close()
			return err
		}
		c.check(ct.repeatable && continueBoth(w, r.sim, restored),
			"checkpoint round trip: re-saves repeat %d bytes, the restored run continues %d cycles identically", ct.bytes, w.tail)
		ckptBytes = ct.bytes
		r.sim.Close()
		restored.Close()
	}

	// An attached observer turns sharded stepping off, so one untimed
	// repetition steps sharded, with 2 workers and no observer.
	sh, err := runRep(w, &repSettings{seed: o.seed, workers: 2, rs: rs}, 0)
	if err != nil {
		return err
	}
	sh.sim.Close()
	c.check(bytes.Equal(ref.enc, sh.enc) && sh.handoffFailed == 0,
		"rep with 2 workers and no observer (sharded Steps) repeats the Result of %d workers, observed=%v", w.workers, w.observe)

	fp := fingerprint(ref.enc)
	fmt.Fprintf(c.out, "fingerprint %s seed %d\n", fp, o.seed)
	if !smoke {
		if o.seed != defaultSeed {
			g, err := runRep(w, &repSettings{seed: defaultSeed, workers: w.workers, observe: w.observe, rs: rs}, 0)
			if err != nil {
				return err
			}
			g.sim.Close()
			fp = fingerprint(g.enc)
		}
		checkGolden(o, c, fp)
	}

	res := ref.res
	ms.set("sim_cycles_per_s", float64(w.cycles())*1e9/minOf(loops), "cycles/s",
		fmt.Sprintf("%d cycles per rep, best of %d reps; median %.6g", w.cycles(), n, float64(w.cycles())*1e9/median(loops)))
	ms.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	ms.set("peak_heap_mb", float64(hp.peak)/(1<<20), "MiB",
		fmt.Sprintf("largest live heap of %d samples over a rep, in-loop hand-overs included", hp.samples))
	ms.set("ckpt_bytes", float64(ckptBytes), "bytes", "")
	ms.set("sim_throughput", res.Throughput(), "pkts/input/cycle", "")
	ms.set("sim_latency_p50_clk", res.LatencyP(0.5), "clocks", "")
	ms.set("sim_latency_p99_clk", res.LatencyP(0.99), "clocks", "")
	ms.set("sim_accepted_frac", 1-res.DiscardFraction(), "ratio", fmt.Sprintf("sim_discard_frac %.6g", res.DiscardFraction()))
	fmt.Fprintf(c.out, "step_us p50 best %.6g median %.6g, p99 best %.6g median %.6g (%d Steps per rep, %d beyond p99, %d reps)\n",
		minOf(p50s)/1e3, median(p50s)/1e3, minOf(p99s)/1e3, median(p99s)/1e3, w.cfg.MeasureCycles, w.cfg.MeasureCycles/100, n)
	steps := int64(n) * w.cfg.MeasureCycles
	fmt.Fprintf(c.out, "allocs_per_cycle %.6g (%d allocations in %d measured Steps, checkpoint calls excluded)\n",
		float64(allocs)/float64(steps), allocs, steps)
	fmt.Fprintf(c.out, "failed_frac %g (%d of %d checks failed)\n", float64(c.failed)/float64(max(c.attempted, 1)), c.failed, c.attempted)
	return nil
}

package main

import (
	"fmt"

	"damq"
)

// workload is one named benchmark input: a network configuration plus the
// execution setting the untraced run uses. The seed is filled in per run;
// everything else is fixed, so a (workload, seed) pair always simulates
// the same packets.
type workload struct {
	name string
	cfg  damq.NetworkConfig
	// workers is the intra-run worker count of the untraced run. An
	// attached observer steps serially whatever the count, so the
	// untraced run also checks one unobserved repetition with 2 workers,
	// and the traced run uses 1.
	workers int
	// observe attaches an observer in the untraced run too.
	observe bool
	// ckptEvery hands the simulation over to a checkpoint-restored copy
	// every ckptEvery measured cycles inside the timed loop (0 = never).
	ckptEvery int64
	// tail is how many cycles the end-of-run checkpoint round trip
	// continues the original and the restored simulation.
	tail int64
	// repsPerSecond is how many repetitions a run makes per second of its
	// length (see reps).
	repsPerSecond float64
}

// reps is how many repetitions a run of the given length makes, at least
// one. It depends on the length alone, so a faster or slower simulator
// makes the same repetitions and only takes less or more time. On a
// 2-vCPU Xeon a uniform or sparse repetition takes about 0.2 s and a
// hotspot one about 1.9 s; hotspot gets the larger share of the time,
// because its few long repetitions are the likeliest to all be slowed by
// other work on a shared host.
func (w *workload) reps(seconds float64) int {
	return max(1, int(seconds*w.repsPerSecond+0.5))
}

// cycles is the simulated length of one repetition.
func (w *workload) cycles() int64 { return w.cfg.WarmupCycles + w.cfg.MeasureCycles }

// switches is the number of switches in the network: one row of
// Inputs/Radix per stage.
func (w *workload) switches() int {
	n, stages := w.cfg.Radix, 0
	for v := 1; v < w.cfg.Inputs; v *= n {
		stages++
	}
	return stages * w.cfg.Inputs / n
}

// switchConfig is the facade switch the replay harness drives: same kind,
// capacity, arbitration policy and pool sharing as the network's switches.
func (w *workload) switchConfig() damq.SwitchConfig {
	return damq.SwitchConfig{
		Ports:      w.cfg.Radix,
		BufferKind: w.cfg.BufferKind,
		Capacity:   w.cfg.Capacity,
		Policy:     w.cfg.Policy,
		SharedPool: w.cfg.SharedPool,
		Sharing:    w.cfg.Sharing,
	}
}

// The three workloads. Why each exists, and which layers it loads, is
// recorded beside its name in BENCHMARK.json.
var workloads = []*workload{
	{
		// Table 4's regime just under DAMQ saturation (~0.70): every
		// switch is active every cycle, so arbitration with blocking
		// probes and buffer push/pop dominate the cycle.
		name: "uniform-blocking-64",
		cfg: damq.NetworkConfig{
			Radix: 4, Inputs: 64, BufferKind: damq.DAMQ, Capacity: 4,
			Policy: damq.SmartArbitration, Protocol: damq.Blocking,
			Traffic:      damq.TrafficSpec{Kind: damq.UniformTraffic, Load: 0.65},
			WarmupCycles: 1000, MeasureCycles: 3000,
		},
		workers:       1,
		tail:          500,
		repsPerSecond: 10.0 / 3,
	},
	{
		// Table 3's protocol at light load: the active set skips idle
		// switches, so injection, RNG and statistics dominate and the
		// arbiter is nearly bypassed.
		name: "sparse-discard-64",
		cfg: damq.NetworkConfig{
			Radix: 4, Inputs: 64, BufferKind: damq.DAMQ, Capacity: 4,
			Policy: damq.SmartArbitration, Protocol: damq.Discarding,
			Traffic:      damq.TrafficSpec{Kind: damq.UniformTraffic, Load: 0.02},
			WarmupCycles: 1000, MeasureCycles: 40000,
		},
		workers:       1,
		tail:          5000,
		repsPerSecond: 10.0 / 3,
	},
	{
		// BShare admission in a switch-wide shared pool on a 1024-input
		// network under a 5% hot spot: policy refusals, a clocked policy,
		// shared-pool reads, the observer and in-loop checkpoints.
		name: "hotspot-shared-1024",
		cfg: damq.NetworkConfig{
			Radix: 4, Inputs: 1024, BufferKind: damq.BSHARE, Capacity: 4,
			Policy: damq.SmartArbitration, Protocol: damq.Discarding,
			Traffic:      damq.TrafficSpec{Kind: damq.HotSpotTraffic, Load: 0.6, HotFraction: 0.05, HotDest: 0},
			WarmupCycles: 200, MeasureCycles: 1000,
			SharedPool: true,
		},
		workers:       2,
		observe:       true,
		ckptEvery:     250,
		tail:          50,
		repsPerSecond: 0.8,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

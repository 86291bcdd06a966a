package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"damq"
)

// repSettings says how one repetition of a workload runs.
type repSettings struct {
	seed    uint64
	workers int
	observe bool
	tr      *tracer // nil: untraced
	// stepNs, when not nil, receives the host time in ns of each Step,
	// indexed by its position in the repetition; it has w.cycles() entries.
	stepNs []float64
	heap   *heapProbe // nil: the live heap is not sampled
	rs     *runtimeStats
}

// repOut is what one repetition measured.
type repOut struct {
	res      *damq.NetworkResult
	enc      []byte // encodeResult(res)
	sim      *damq.NetworkSim
	observer *damq.Observer
	setup    time.Duration // NewObserver + NewNetwork
	// work is the host time of the Step loop: every Step plus the
	// in-loop checkpoint hand-overs, without the benchmark's own checks.
	work          time.Duration
	allocs        uint64 // measure-window allocations, checkpoint calls excluded
	saves         []time.Duration
	restores      []time.Duration
	handoffs      int
	handoffFailed int
}

// newSim builds the workload's network, with a fresh observer when asked.
func newSim(w *workload, st *repSettings, parent int32) (*damq.NetworkSim, *damq.Observer, error) {
	opts := []damq.Option{damq.WithSeed(st.seed), damq.WithWorkers(st.workers)}
	var o *damq.Observer
	if st.observe {
		id := st.tr.begin("damq.NewObserver", parent)
		o = damq.NewObserver()
		st.tr.end(id, 1)
		opts = append(opts, damq.WithObserver(o))
	}
	id := st.tr.begin("damq.NewNetwork", parent)
	sim, err := damq.NewNetwork(w.cfg, opts...)
	st.tr.end(id, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: NewNetwork: %w", w.name, err)
	}
	return sim, o, nil
}

// markWarmupBoundary starts the measurement window of a Step-driven sim
// the way Run does. RunCtx with a cancelled context, called once warm-up
// is done, records the boundary and returns before its first Step, so
// the Step/Collect loop yields the Result that Run would.
func markWarmupBoundary(sim *damq.NetworkSim) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = sim.RunCtx(ctx) // the error is the cancellation itself
}

// runRep builds the workload's network and steps it through warm-up and
// the measurement window, timing each Step. On the in-loop checkpoint
// workload it hands the run over to a restored copy every ckptEvery
// measured cycles and checks that the copy reports the same Result.
// The caller owns out.sim and must Close it.
func runRep(w *workload, st *repSettings, root int32) (*repOut, error) {
	out := &repOut{}
	t0 := time.Now()
	sim, o, err := newSim(w, st, root)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)

	step := func(i int, measuring bool) {
		id := st.tr.begin("NetworkSim.Step", root)
		ts := time.Now()
		sim.Step(measuring)
		d := time.Since(ts)
		st.tr.end(id, 1)
		out.work += d
		if st.stepNs != nil {
			st.stepNs[i] = float64(d)
		}
		if st.heap.stepDue(i) {
			st.heap.sample()
		}
	}
	for i := 0; i < int(w.cfg.WarmupCycles); i++ {
		step(i, false)
	}
	markWarmupBoundary(sim)

	a0 := st.rs.allocs()
	var excluded uint64
	for i := int64(1); i <= w.cfg.MeasureCycles; i++ {
		step(int(w.cfg.WarmupCycles+i-1), true)
		if w.ckptEvery > 0 && i%w.ckptEvery == 0 && i < w.cfg.MeasureCycles {
			ax := st.rs.allocs()
			next, no, d, err := out.handoff(w, st, sim, root)
			excluded += st.rs.allocs() - ax
			if err != nil {
				sim.Close()
				return nil, err
			}
			sim, o = next, no
			out.work += d
			out.handoffs++
		}
	}
	out.allocs = st.rs.allocs() - a0 - excluded

	id := st.tr.begin("NetworkSim.Collect", root)
	out.res = sim.Collect()
	st.tr.end(id, 1)
	out.sim, out.observer = sim, o
	st.heap.sample()
	out.enc, err = encodeResult(out.res)
	if err != nil {
		sim.Close()
		return nil, err
	}
	return out, nil
}

// handoff checkpoints sim to memory, restores it into a new simulation
// and checks that both report the same Result. The old simulation is
// closed; the restored one continues the run. It returns the time of the
// save and the restore.
func (out *repOut) handoff(w *workload, st *repSettings, sim *damq.NetworkSim, root int32) (*damq.NetworkSim, *damq.Observer, time.Duration, error) {
	ct, next, o, err := timeCheckpoint(w, st, sim, 1, root)
	if err != nil {
		return nil, nil, 0, err
	}
	out.saves = append(out.saves, ct.saves[0])
	out.restores = append(out.restores, ct.restores[0])
	a, errA := encodeResult(sim.Collect())
	b, errB := encodeResult(next.Collect())
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		out.handoffFailed++
	}
	sim.Close()
	return next, o, ct.saves[0] + ct.restores[0], nil
}

// ckptTimes is what timeCheckpoint measured.
type ckptTimes struct {
	saves, restores []time.Duration
	saveAllocs      uint64 // per save
	restoreAllocs   uint64 // per restore
	bytes           int
	// repeatable is false when saving the unchanged simulation again
	// produced different bytes.
	repeatable bool
}

// timeCheckpoint saves sim n times and restores the saved bytes n times,
// timing every call. Each restored copy gets a fresh observer when the
// run is observed. It returns the last copy and its observer; the caller
// must Close the copy.
func timeCheckpoint(w *workload, st *repSettings, sim *damq.NetworkSim, n int, root int32) (*ckptTimes, *damq.NetworkSim, *damq.Observer, error) {
	c := &ckptTimes{repeatable: true}
	var first, again bytes.Buffer
	for i := 0; i < n; i++ {
		buf := &first
		if i > 0 {
			buf = &again
			buf.Reset()
		}
		a0 := st.rs.allocs()
		id := st.tr.begin("damq.Checkpoint", root)
		t := time.Now()
		err := damq.Checkpoint(sim, buf)
		c.saves = append(c.saves, time.Since(t))
		st.tr.end(id, 1)
		c.saveAllocs += st.rs.allocs() - a0
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: Checkpoint: %w", w.name, err)
		}
		if i > 0 && !bytes.Equal(first.Bytes(), buf.Bytes()) {
			c.repeatable = false
		}
	}
	c.bytes = first.Len()
	var next *damq.NetworkSim
	var o *damq.Observer
	for i := 0; i < n; i++ {
		if next != nil {
			next.Close()
		}
		opts := []damq.Option{damq.WithWorkers(st.workers)}
		if st.observe {
			o = damq.NewObserver()
			opts = append(opts, damq.WithObserver(o))
		}
		a0 := st.rs.allocs()
		id := st.tr.begin("damq.Restore", root)
		t := time.Now()
		var err error
		next, err = damq.Restore(bytes.NewReader(first.Bytes()), opts...)
		c.restores = append(c.restores, time.Since(t))
		st.tr.end(id, 1)
		c.restoreAllocs += st.rs.allocs() - a0
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: Restore: %w", w.name, err)
		}
	}
	// The point of largest retention in a hand-over: the saved simulation,
	// its checkpoint bytes and the restored copy are all live.
	st.heap.sample()
	runtime.KeepAlive(&first)
	c.saveAllocs /= uint64(n)
	c.restoreAllocs /= uint64(n)
	return c, next, o, nil
}

// continueBoth steps a simulation and its restored copy w.tail more
// measured cycles and reports whether they then give the same Result.
func continueBoth(w *workload, sim, next *damq.NetworkSim) bool {
	for i := int64(0); i < w.tail; i++ {
		sim.Step(true)
		next.Step(true)
	}
	a, errA := encodeResult(sim.Collect())
	b, errB := encodeResult(next.Collect())
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

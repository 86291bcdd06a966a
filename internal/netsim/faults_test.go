package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"damq/internal/buffer"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/parallel"
	"damq/internal/sw"
)

// chaosConfig is the soak workload: small enough to run thousands of
// cycles per seed quickly, busy enough that every fault class fires.
func chaosConfig(kind buffer.Kind, proto sw.Protocol, seed uint64) Config {
	return Config{
		Inputs:     16,
		BufferKind: kind,
		Protocol:   proto,
		Traffic:    TrafficSpec{Kind: Uniform, Load: 0.7},
		Seed:       seed,
	}
}

var chaosFaults = fault.Config{
	Seed:              1,
	SlotStuckRate:     2e-5,
	LinkTransientRate: 2e-4,
	LinkDeadRate:      5e-6,
}

// TestChaosSoakConservation is the tentpole's acceptance test: thousands
// of cycles under mixed slot/link faults, across seeds, buffer kinds and
// both protocols, asserting the conservation invariant
//
//	injected == delivered + discarded-in-net + faulted + in-flight
//
// and running every buffer's linked-list self-check periodically — under
// fault injection the pools must shrink gracefully, never corrupt.
func TestChaosSoakConservation(t *testing.T) {
	const cycles = 10_000
	seeds := []uint64{1, 2, 3, 4, 5}
	var totalFaulted, totalQuarantined int64
	for _, kind := range []buffer.Kind{buffer.DAMQ, buffer.DAFC} {
		for _, proto := range []sw.Protocol{sw.Discarding, sw.Blocking} {
			for _, seed := range seeds {
				name := fmt.Sprintf("%v/%v/seed%d", kind, proto, seed)
				t.Run(name, func(t *testing.T) {
					fc := chaosFaults
					fc.Seed = seed * 977
					s, err := New(chaosConfig(kind, proto, seed))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.SetFaults(fc); err != nil {
						t.Fatal(err)
					}
					// No warmup: every cycle is measured, so the Result
					// counters see the whole history and conservation is
					// exact.
					for i := 0; i < cycles; i++ {
						s.Step(true)
						if i%500 == 499 {
							if err := s.CheckBuffers(); err != nil {
								t.Fatalf("cycle %d: %v", i, err)
							}
						}
					}
					if err := s.CheckBuffers(); err != nil {
						t.Fatalf("final: %v", err)
					}
					res := s.Collect()
					got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
					if res.Injected != got {
						t.Fatalf("conservation broken: injected %d != delivered %d + discarded %d + faulted %d + inflight %d",
							res.Injected, res.Delivered, res.DiscardedInNet, res.FaultedInNet, s.InFlight())
					}
					if res.FaultedInNet != s.Faulted() {
						t.Fatalf("faulted mismatch: window %d, total %d (warmup was 0)", res.FaultedInNet, s.Faulted())
					}
					if proto == sw.Blocking && res.DiscardedInNet != 0 {
						t.Fatalf("blocking protocol discarded %d in-net (only faults may drop)", res.DiscardedInNet)
					}
					totalFaulted += res.FaultedInNet
					totalQuarantined += s.QuarantinedSlots()
				})
			}
		}
	}
	// The soak is vacuous if no fault ever fired; the rates are chosen so
	// that across 20 runs both classes trigger.
	if totalFaulted == 0 {
		t.Fatal("no link fault fired across the whole soak")
	}
	if totalQuarantined == 0 {
		t.Fatal("no slot was quarantined across the whole soak")
	}
}

// TestFaultsOffDoesNotChangeResults pins the faults-off contract: a
// disabled fault config (zero value, or all rates zero) leaves the run
// byte-identical to one that never touched SetFaults, including the
// metrics snapshot — no fault.* keys may appear.
func TestFaultsOffDoesNotChangeResults(t *testing.T) {
	run := func(arm bool) ([]byte, *Result) {
		cfg := chaosConfig(buffer.DAMQ, sw.Discarding, 42)
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 2000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			if err := s.SetFaults(fault.Config{RetryLimit: 3}); err != nil {
				t.Fatal(err)
			}
		}
		o := obs.NewObserver()
		s.SetObserver(o)
		res := s.Run()
		raw, err := o.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw, res
	}
	rawOff, resOff := run(false)
	rawZero, resZero := run(true)
	if !bytes.Equal(rawOff, rawZero) {
		t.Fatalf("faults-off snapshot differs from never-armed snapshot:\n%s\nvs\n%s", rawZero, rawOff)
	}
	jsonOff, err := json.Marshal(resOff)
	if err != nil {
		t.Fatal(err)
	}
	jsonZero, err := json.Marshal(resZero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOff, jsonZero) {
		t.Fatalf("faults-off results differ:\n%s\nvs\n%s", jsonZero, jsonOff)
	}
	if bytes.Contains(jsonOff, []byte("FaultedInNet")) {
		t.Fatal("fault-free Result JSON contains FaultedInNet (omitempty broken)")
	}
	if bytes.Contains(rawOff, []byte("fault.")) {
		t.Fatal("fault-free snapshot contains fault.* metrics")
	}
}

// TestFaultedSnapshotDeterministicAcrossWorkers pins the acceptance
// criterion "same fault seed ⇒ byte-identical metrics snapshot at any
// -workers count": a batch of faulted, observed simulations produces the
// same snapshot bytes whether the batch runs serially or on a pool.
func TestFaultedSnapshotDeterministicAcrossWorkers(t *testing.T) {
	const runs = 6
	snapshots := func(workers int) [][]byte {
		out := make([][]byte, runs)
		err := parallel.For(runs, workers, func(i int) error {
			cfg := chaosConfig(buffer.DAMQ, sw.Discarding, uint64(i+1))
			cfg.WarmupCycles = 100
			cfg.MeasureCycles = 1500
			s, err := New(cfg)
			if err != nil {
				return err
			}
			if err := s.SetFaults(chaosFaults); err != nil {
				return err
			}
			o := obs.NewObserver()
			s.SetObserver(o)
			s.Run()
			raw, err := o.Snapshot().Encode()
			if err != nil {
				return err
			}
			out[i] = raw
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := snapshots(1)
	pooled := snapshots(4)
	for i := range serial {
		if !bytes.Equal(serial[i], pooled[i]) {
			t.Fatalf("run %d: snapshot differs between workers=1 and workers=4", i)
		}
	}
	// The criterion is about faulted runs; make sure faults actually
	// appear in the snapshots being compared.
	if !bytes.Contains(serial[0], []byte(fault.MetricLinkDrops)) {
		t.Fatalf("faulted snapshot missing %s:\n%s", fault.MetricLinkDrops, serial[0])
	}
}

// TestFaultSeedZeroDerivedFromSimSeed: with fault seed 0 the schedule is
// derived from the simulation seed — replayable (same sim seed → same
// faults) but distinct across sim seeds by default.
func TestFaultSeedZeroDerivedFromSimSeed(t *testing.T) {
	run := func(simSeed uint64) int64 {
		s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, simSeed))
		if err != nil {
			t.Fatal(err)
		}
		fc := fault.Config{LinkTransientRate: 1e-3}
		if err := s.SetFaults(fc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			s.Step(true)
		}
		return s.Faulted()
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatalf("same sim seed gave different fault totals: %d vs %d", a1, a2)
	}
	if a1 == 0 {
		t.Fatal("no faults fired at rate 1e-3 over 3000 cycles")
	}
	_ = b // b may coincidentally equal a1; deriving distinct schedules is probabilistic
}

// TestSetFaultsAfterStepRejected pins the arm-before-stepping contract.
func TestSetFaultsAfterStepRejected(t *testing.T) {
	s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(false)
	if err := s.SetFaults(chaosFaults); err == nil {
		t.Fatal("SetFaults accepted after stepping")
	}
}

// TestSetFaultsValidates propagates config validation.
func TestSetFaultsValidates(t *testing.T) {
	s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults(fault.Config{LinkDeadRate: 2}); err == nil {
		t.Fatal("SetFaults accepted rate 2")
	}
}

// TestStaticBuffersSkipSlotFaults: statically laid-out organizations
// (FIFO, SAMQ; not buffer.KindSharesPool) ignore slot faults instead of
// crashing, and link faults still work.
func TestStaticBuffersSkipSlotFaults(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.SAMQ} {
		cfg := chaosConfig(kind, sw.Discarding, 3)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fc := chaosFaults
		fc.SlotStuckRate = 0.01 // aggressive: would quarantine everything if applied
		if err := s.SetFaults(fc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			s.Step(true)
		}
		res := s.Collect()
		if s.QuarantinedSlots() != 0 {
			t.Fatalf("%v: quarantined %d slots on a pool-less organization", kind, s.QuarantinedSlots())
		}
		got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
		if res.Injected != got {
			t.Fatalf("%v: conservation broken", kind)
		}
	}
}

// TestCheckBuffersAuditsStaticKinds: CheckBuffers audits every buffer,
// whatever its kind, so a drifted queue counter in a FIFO or SAMQ
// network is reported rather than skipped.
func TestCheckBuffersAuditsStaticKinds(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.SAMQ} {
		s, err := New(chaosConfig(kind, sw.Discarding, 3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			s.Step(true)
		}
		if err := s.CheckBuffers(); err != nil {
			t.Fatalf("%v: healthy network fails the audit: %v", kind, err)
		}
		sp := s.stages[0][0].Buffer(0).Pool()
		st := sp.SaveState()
		if st.QPkts[0] > 0 {
			st.QPkts[0]--
		} else {
			st.QPkts[0]++
		}
		if err := sp.LoadState(st); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckBuffers(); err == nil {
			t.Fatalf("%v: CheckBuffers passed a drifted queue counter", kind)
		}
	}
}

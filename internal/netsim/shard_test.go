package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/sw"
)

// shardTestCases cover both protocols, the 2×2 fast-path radix, variable
// lengths, bursty traffic, and a near-idle network where most shards
// exchange no mail — every code path whose work the shards split.
func shardTestCases() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"blocking DAMQ uniform", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.6},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"discarding SAMQ saturated", Config{
			BufferKind: buffer.SAMQ, Capacity: 4, Policy: arbiter.Dumb, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.9},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"radix-2 blocking FIFO", Config{
			Radix: 2, Inputs: 64,
			BufferKind: buffer.FIFO, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.4},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"hot-spot bursty varlen DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 8, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Bursty, Load: 0.25, MeanBurst: 3, MinSlots: 1, MaxSlots: 2},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"sparse discarding DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.02},
			WarmupCycles: 200, MeasureCycles: 3000,
		}},
		{"hot-spot discarding DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: HotSpot, Load: 0.4, HotFraction: 0.05},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
	}
}

// TestShardedMatchesSerial is the tentpole's acceptance pin: one network
// stepped with any -workers count produces a Result identical — every
// counter, every Welford summary word, every histogram bucket — to the
// serial run. reflect.DeepEqual compares the unexported float state too,
// so "byte-identical" here is literal. Run under -race this test also
// proves the phase barriers are sound.
func TestShardedMatchesSerial(t *testing.T) {
	for _, tc := range shardTestCases() {
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed = seed
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Run()
				for _, workers := range []int{1, 3, 8} {
					cfg.Workers = workers
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := sim.Run()
					sim.Close()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d diverges from serial:\n got: %+v\nwant: %+v",
							workers, got, want)
					}
					if sim.InFlight() != ref.InFlight() || sim.SourceBacklogLen() != ref.SourceBacklogLen() {
						t.Errorf("workers=%d: InFlight/backlog %d/%d, serial %d/%d", workers,
							sim.InFlight(), sim.SourceBacklogLen(), ref.InFlight(), ref.SourceBacklogLen())
					}
				}
			})
		}
	}
}

// TestShardedStepAfterClose: Close releases the gang but not the Sim —
// further Steps fall back to the serial path and continue the exact same
// trajectory a never-closed run would take.
func TestShardedStepAfterClose(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.5)
	cfg.Workers = 4
	mixed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 400; i++ {
		mixed.Step(true)
		ref.Step(true)
	}
	mixed.Close()
	for i := 0; i < 400; i++ {
		mixed.Step(true)
		ref.Step(true)
	}
	if got, want := mixed.Collect(), ref.Collect(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-Close trajectory diverges:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestWorkersValidation pins Config.Workers semantics: counts above the
// switches-per-stage shard bound are rejected with cfgerr.ErrBadWorkers,
// everything else (including negative = auto) is accepted and clamped.
func TestWorkersValidation(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.3) // 64 inputs, radix 4: 16 switches/stage
	cfg.Workers = 17
	if _, err := New(cfg); !errors.Is(err, cfgerr.ErrBadWorkers) {
		t.Fatalf("Workers=17 on 16 switches/stage: err = %v, want ErrBadWorkers", err)
	}
	cfg.Workers = 17
	if err := cfg.Validate(); !errors.Is(err, cfgerr.ErrBadWorkers) {
		t.Fatalf("Validate(Workers=17) = %v, want ErrBadWorkers", err)
	}
	for _, w := range []int{-1, 0, 1, 16} {
		cfg.Workers = w
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("Workers=%d rejected: %v", w, err)
		}
		if got := sim.Workers(); got < 1 || got > 16 {
			t.Fatalf("Workers=%d resolved to %d, want within [1,16]", w, got)
		}
		sim.Close()
	}
}

// TestCollectReportsMeasuredCycles: Collect's MeasureCycles reflects the
// measuring steps actually taken, and Workers is scrubbed from the
// reported config (execution knob, not model parameter).
func TestCollectReportsMeasuredCycles(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.3)
	cfg.Workers = 4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for i := 0; i < 100; i++ {
		sim.Step(false)
	}
	for i := 0; i < 250; i++ {
		sim.Step(true)
	}
	res := sim.Collect()
	if res.Config.MeasureCycles != 250 {
		t.Errorf("MeasureCycles = %d, want 250", res.Config.MeasureCycles)
	}
	if res.Config.Workers != 0 {
		t.Errorf("reported Workers = %d, want 0", res.Config.Workers)
	}
}

// TestChaosSoakConservationSharded extends the chaos soak to the sharded
// engine: thousands of cycles of mixed slot/link faults at -workers 4,
// asserting the conservation invariant
//
//	injected == delivered + discarded-in-net + faulted + in-flight
//
// and, against a serial twin, that the fault schedule and every counter
// replay byte-for-byte — faults are pure functions of (seed, site,
// cycle), so sharding must not move a single drop.
func TestChaosSoakConservationSharded(t *testing.T) {
	const cycles = 8_000
	var totalFaulted, totalQuarantined int64
	for _, kind := range []buffer.Kind{buffer.DAMQ, buffer.DAFC} {
		for _, proto := range []sw.Protocol{sw.Discarding, sw.Blocking} {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%v/%v/seed%d", kind, proto, seed)
				t.Run(name, func(t *testing.T) {
					fc := chaosFaults
					fc.Seed = seed * 977
					run := func(workers int) (*Sim, *Result) {
						cfg := chaosConfig(kind, proto, seed)
						cfg.Workers = workers
						s, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := s.SetFaults(fc); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < cycles; i++ {
							s.Step(true)
							if i%1000 == 999 {
								if err := s.CheckBuffers(); err != nil {
									t.Fatalf("workers=%d cycle %d: %v", workers, i, err)
								}
							}
						}
						res := s.Collect()
						s.Close()
						return s, res
					}
					s, res := run(4)
					got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
					if res.Injected != got {
						t.Fatalf("conservation broken: injected %d != delivered %d + discarded %d + faulted %d + inflight %d",
							res.Injected, res.Delivered, res.DiscardedInNet, res.FaultedInNet, s.InFlight())
					}
					sSerial, resSerial := run(1)
					if !reflect.DeepEqual(res, resSerial) {
						t.Fatalf("faulted sharded run diverges from serial:\n got: %+v\nwant: %+v", res, resSerial)
					}
					if s.Faulted() != sSerial.Faulted() || s.QuarantinedSlots() != sSerial.QuarantinedSlots() {
						t.Fatalf("fault totals diverge: %d/%d vs %d/%d",
							s.Faulted(), s.QuarantinedSlots(), sSerial.Faulted(), sSerial.QuarantinedSlots())
					}
					totalFaulted += res.FaultedInNet
					totalQuarantined += s.QuarantinedSlots()
				})
			}
		}
	}
	if totalFaulted == 0 {
		t.Fatal("no link fault fired across the whole sharded soak")
	}
	if totalQuarantined == 0 {
		t.Fatal("no slot was quarantined across the whole sharded soak")
	}
}

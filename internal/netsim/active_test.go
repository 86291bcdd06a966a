package netsim

import (
	"reflect"
	"slices"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/sw"
)

// TestActiveSetMatchesFullScan is the equivalence property behind the
// active-set optimization: a run that arbitrates only switches holding
// packets (with idle fast-forwarding) must produce bit-identical results
// to the naive reference that arbitrates every switch every cycle. Any
// divergence — a missed activation, a wrong AdvanceIdle count, a stale
// occupancy counter — shows up as a mismatch in the Result fields, which
// include every counter, latency summary, histogram bucket, and occupancy
// trace of the run.
func TestActiveSetMatchesFullScan(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform low blocking DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.15},
			Seed:    11, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"uniform high blocking FIFO dumb", Config{
			BufferKind: buffer.FIFO, Capacity: 4, Policy: arbiter.Dumb, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.7},
			Seed:    12, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"uniform saturated discarding SAMQ", Config{
			BufferKind: buffer.SAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: Uniform, Load: 1.0},
			Seed:    13, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"hot-spot blocking DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: HotSpot, Load: 0.3, HotFraction: 0.05},
			Seed:    14, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"hot-spot discarding SAFC", Config{
			BufferKind: buffer.SAFC, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: HotSpot, Load: 0.5, HotFraction: 0.05},
			Seed:    15, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"bursty blocking DAMQ varlen", Config{
			BufferKind: buffer.DAMQ, Capacity: 8, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Bursty, Load: 0.25, MeanBurst: 3, MinSlots: 1, MaxSlots: 2},
			Seed:    16, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"small radix-2 network", Config{
			Radix: 2, Inputs: 16,
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.4},
			Seed:    17, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"sparse discarding DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.02},
			Seed:    18, WarmupCycles: 300, MeasureCycles: 4000,
		}},
		{"hot-spot discarding DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: HotSpot, Load: 0.4, HotFraction: 0.05},
			Seed:    19, WarmupCycles: 300, MeasureCycles: 1200,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.fullScan = true

			got := fast.Run()
			want := ref.Run()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("active-set result diverges from full-scan reference:\n got: %+v\nwant: %+v", got, want)
			}
			if fast.InFlight() != ref.InFlight() {
				t.Errorf("InFlight: active-set %d, full-scan %d", fast.InFlight(), ref.InFlight())
			}
			if fast.SourceBacklogLen() != ref.SourceBacklogLen() {
				t.Errorf("SourceBacklogLen: active-set %d, full-scan %d",
					fast.SourceBacklogLen(), ref.SourceBacklogLen())
			}
			// The active lists (unioned across shards) must agree with
			// actual switch occupancy at the end of the run.
			for st := range fast.stages {
				listed := make(map[int]bool)
				for _, sh := range fast.shards {
					for _, si := range sh.active[st] {
						listed[int(si)] = true
					}
				}
				for si, swc := range fast.stages[st] {
					if swc.Empty() == listed[si] {
						t.Errorf("stage %d switch %d: Empty=%v but active-listed=%v",
							st, si, swc.Empty(), listed[si])
					}
					if refLen := ref.stages[st][si].Len(); swc.Len() != refLen {
						t.Errorf("stage %d switch %d: occupancy %d, reference %d",
							st, si, swc.Len(), refLen)
					}
				}
			}
		})
	}
}

// TestActiveSetSortedInvariant checks the structural invariant Step relies
// on for deterministic iteration order: active lists stay sorted and
// duplicate-free as switches churn in and out of the set.
func TestActiveSetSortedInvariant(t *testing.T) {
	sim, err := New(Config{
		BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.3}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		sim.Step(true)
		for _, sh := range sim.shards {
			for st := range sh.active {
				for j, si := range sh.active[st] {
					if int(si) < sh.lo || int(si) >= sh.hi {
						t.Fatalf("cycle %d shard %d stage %d: switch %d outside [%d,%d)",
							i, sh.id, st, si, sh.lo, sh.hi)
					}
					if j > 0 && sh.active[st][j-1] >= si {
						t.Fatalf("cycle %d shard %d stage %d: active list not strictly sorted: %v",
							i, sh.id, st, sh.active[st])
					}
				}
			}
		}
	}
}

// TestShardBookkeepingExact checks, after every cycle, that each shard's
// idle-skipping bookkeeping describes the network exactly: the active
// lists hold precisely the owned switches with packets, nActive is their
// total length, outMask has bit d set exactly when outbox[d] holds
// transfers, and the inject phase consumed inMask. A stale entry or bit
// changes no result — it only costs time — so the equivalence tests
// alone cannot see one.
func TestShardBookkeepingExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, load := range []float64{0.02, 0.3} {
			sim, err := New(Config{
				BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
				Traffic: TrafficSpec{Kind: Uniform, Load: load}, Seed: 5, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				sim.Step(true)
				for _, sh := range sim.shards {
					n := 0
					for st := range sh.active {
						var want []int32
						for si := sh.lo; si < sh.hi; si++ {
							if !sim.stages[st][si].Empty() {
								want = append(want, int32(si))
							}
						}
						if got := sh.active[st]; !slices.Equal(got, want) {
							t.Fatalf("workers=%d load=%v cycle %d shard %d stage %d: active %v, occupied %v",
								workers, load, i, sh.id, st, got, want)
						}
						n += len(sh.active[st])
					}
					if sh.nActive != n {
						t.Fatalf("workers=%d load=%v cycle %d shard %d: nActive %d, lists hold %d",
							workers, load, i, sh.id, sh.nActive, n)
					}
					if sh.inMask != 0 {
						t.Fatalf("workers=%d load=%v cycle %d shard %d: inMask %b left after the inject phase",
							workers, load, i, sh.id, sh.inMask)
					}
					for d, box := range sh.outbox {
						if set := sh.outMask&(1<<uint(d)) != 0; set != (len(box) > 0) {
							t.Fatalf("workers=%d load=%v cycle %d shard %d: outMask bit %d = %v with %d transfers queued",
								workers, load, i, sh.id, d, set, len(box))
						}
					}
				}
			}
			sim.Close()
		}
	}
}

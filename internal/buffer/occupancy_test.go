package buffer

import (
	"testing"

	"damq/internal/packet"
	"damq/internal/rng"
)

// checkOccupancy fails the test unless sp's occupancy word has exactly
// the bits of its non-empty queues, read one queue at a time and as every
// 64-queue window.
func checkOccupancy(t *testing.T, sp *SlotPool, what string) {
	t.Helper()
	if err := sp.CheckInvariants(nil); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for base := 0; base < sp.numQueues; base++ {
		n := min(64, sp.numQueues-base)
		var want uint64
		for i := 0; i < n; i++ {
			if sp.QueueLen(base+i) > 0 {
				want |= 1 << uint(i)
			}
		}
		if got := sp.occupied(base, n); got != want {
			t.Fatalf("%s: occupied(%d, %d) = %#x, queues say %#x", what, base, n, got, want)
		}
	}
}

// TestOccupancyWordTracksQueues drives slot pools through random push,
// pop, quarantine and reset sequences and checks the occupancy word after
// every step. Every so often the pool is saved and loaded into a fresh
// pool, whose word LoadState must rebuild. The 70-queue pool puts queue
// bits in two words.
func TestOccupancyWordTracksQueues(t *testing.T) {
	const capacity = 24
	for _, queues := range []int{1, 4, 16, 64, 70} {
		src := rng.New(uint64(queues))
		sp := NewSlotPool(queues, capacity)
		var id uint64
		for step := 0; step < 3000; step++ {
			op := "push"
			switch r := src.Float64(); {
			case r < 0.5:
				id++
				if p := (&packet.Packet{ID: id, Slots: 1 + src.Intn(3)}); p.Slots <= sp.FreeSlots() {
					sp.Push(src.Intn(queues), p)
				}
			case r < 0.9:
				op = "pop"
				sp.Pop(src.Intn(queues))
			case r < 0.96:
				op = "quarantine"
				sp.QuarantineSlot(src.Intn(capacity))
			case r < 0.97:
				op = "reset"
				sp.Reset()
			default:
				op = "save/load"
				fresh := NewSlotPool(queues, capacity)
				if err := fresh.LoadState(sp.SaveState()); err != nil {
					t.Fatalf("%d queues step %d: %v", queues, step, err)
				}
				sp = fresh
			}
			checkOccupancy(t, sp, op)
		}
	}
}

// TestCheckInvariantsCatchesOccupancyDrift: a lost bit, a bit on an
// empty queue and a bit past the last queue each fail the audit.
func TestCheckInvariantsCatchesOccupancyDrift(t *testing.T) {
	sp := NewSlotPool(70, 8)
	sp.Push(3, &packet.Packet{ID: 1, Slots: 1})
	checkOccupancy(t, sp, "baseline")
	for _, c := range []struct {
		name      string
		word, bit int
	}{
		{"lost bit", 0, 3},
		{"bit on an empty queue", 1, 2},
		{"bit past the last queue", 1, 6},
	} {
		sp.occ[c.word] ^= 1 << uint(c.bit)
		if err := sp.CheckInvariants(nil); err == nil {
			t.Errorf("%s: CheckInvariants passed", c.name)
		}
		sp.occ[c.word] ^= 1 << uint(c.bit)
	}
}

// TestSharedGroupHeadMask: every view of a shared pool reads its own row
// of the group's occupancy word, including a view whose row straddles two
// words (13 inputs × 5 outputs = 65 queues; input 12's row is queues
// 60..64).
func TestSharedGroupHeadMask(t *testing.T) {
	const inputs, outputs = 13, 5
	views, err := NewSharedGroup(Config{Kind: DAMQ, NumOutputs: outputs, Capacity: 2}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	var id uint64
	for step := 0; step < 3000; step++ {
		b := views[src.Intn(inputs)]
		out := src.Intn(outputs)
		if src.Bool(0.55) {
			id++
			if p := (&packet.Packet{ID: id, OutPort: out, Slots: 1}); b.CanAccept(p) {
				if err := b.Accept(p); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			b.Pop(out)
		}
		for i, v := range views {
			var want uint64
			for o := 0; o < outputs; o++ {
				if v.Head(o) != nil {
					want |= 1 << uint(o)
				}
			}
			if got := v.HeadMask(); got != want {
				t.Fatalf("step %d view %d: HeadMask %#b, heads say %#b", step, i, got, want)
			}
		}
	}
}

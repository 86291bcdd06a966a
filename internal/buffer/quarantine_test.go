package buffer

import (
	"testing"

	"damq/internal/packet"
	"damq/internal/rng"
)

func TestQuarantineFreeSlotShrinksCapacity(t *testing.T) {
	b := NewDAMQ(2, 8)
	for _, s := range []int{0, 3, 7} {
		if !b.QuarantineSlot(s) {
			t.Fatalf("QuarantineSlot(%d) = false on healthy slot", s)
		}
	}
	if b.Quarantined() != 3 || b.Free() != 5 {
		t.Fatalf("quarantined=%d free=%d, want 3/5", b.Quarantined(), b.Free())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-quarantining is a no-op.
	if b.QuarantineSlot(3) {
		t.Fatal("QuarantineSlot(3) = true on already-quarantined slot")
	}
	// The pool still works with shrunken capacity.
	for i := uint64(0); i < 5; i++ {
		if err := b.Accept(mk(i, int(i)%2, 1)); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
	if b.Free() != 0 {
		t.Fatalf("free = %d after filling shrunken pool", b.Free())
	}
	if b.CanAccept(mk(99, 0, 1)) {
		t.Fatal("CanAccept true with every healthy slot occupied")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for out := 0; out < 2; out++ {
		for b.Pop(out) != nil {
		}
	}
	if b.Free() != 5 || b.Quarantined() != 3 {
		t.Fatalf("after drain: free=%d quarantined=%d, want 5/3", b.Free(), b.Quarantined())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineInUseSlotDeferredUntilRelease(t *testing.T) {
	b := NewDAMQ(2, 4)
	p := mk(1, 0, 2) // occupies slots 0 and 1
	if err := b.Accept(p); err != nil {
		t.Fatal(err)
	}
	if !b.QuarantineSlot(0) || !b.QuarantineSlot(1) {
		t.Fatal("QuarantineSlot on in-use slots returned false")
	}
	// Deferred: the packet still owns its slots.
	if b.Quarantined() != 0 {
		t.Fatalf("quarantined=%d before release, want 0", b.Quarantined())
	}
	if got := b.Head(0); got != p {
		t.Fatalf("Head = %v, want %v", got, p)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := b.Pop(0); got != p {
		t.Fatalf("Pop = %v, want %v", got, p)
	}
	// Released slots diverted to quarantine, not the free list.
	if b.Quarantined() != 2 || b.Free() != 2 {
		t.Fatalf("after release: quarantined=%d free=%d, want 2/2", b.Quarantined(), b.Free())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineFreeTailRepointed(t *testing.T) {
	// Quarantining the free tail must repoint freeTail or the next
	// giveFree writes through a stale register.
	b := NewDAMQ(1, 3)
	if !b.QuarantineSlot(2) { // slot 2 is the initial free tail
		t.Fatal("QuarantineSlot(2) = false")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	p := mk(1, 0, 2)
	if err := b.Accept(p); err != nil {
		t.Fatal(err)
	}
	if b.Pop(0) != p {
		t.Fatal("Pop lost the packet")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Free() != 2 {
		t.Fatalf("free = %d, want 2", b.Free())
	}
}

func TestQuarantineWholePool(t *testing.T) {
	b := NewDAMQ(2, 4)
	for s := 0; s < 4; s++ {
		b.QuarantineSlot(s)
	}
	if b.Free() != 0 || b.Quarantined() != 4 {
		t.Fatalf("free=%d quarantined=%d, want 0/4", b.Free(), b.Quarantined())
	}
	if b.CanAccept(mk(1, 0, 1)) {
		t.Fatal("CanAccept true with the whole pool quarantined")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineResetRestoresPool(t *testing.T) {
	b := NewDAMQ(2, 6)
	b.QuarantineSlot(1)
	b.QuarantineSlot(4)
	b.Reset()
	if b.Quarantined() != 0 || b.Free() != 6 {
		t.Fatalf("after Reset: quarantined=%d free=%d, want 0/6", b.Quarantined(), b.Free())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineOutOfRangePanics(t *testing.T) {
	b := NewDAMQ(1, 2)
	for _, s := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("QuarantineSlot(%d) did not panic", s)
				}
			}()
			b.QuarantineSlot(s)
		}()
	}
}

func TestDAFCQuarantineInherited(t *testing.T) {
	b := MustNew(Config{Kind: DAFC, NumOutputs: 2, Capacity: 8})
	d, ok := any(b).(interface {
		QuarantineSlot(int) bool
		Quarantined() int
	})
	if !ok {
		t.Fatal("DAFC buffer does not expose quarantine")
	}
	if !d.QuarantineSlot(5) {
		t.Fatal("QuarantineSlot(5) = false")
	}
	if d.Quarantined() != 1 || b.Free() != 7 {
		t.Fatalf("quarantined=%d free=%d, want 1/7", d.Quarantined(), b.Free())
	}
}

// refModel is the map-based reference the property test checks the slot
// pool against: per-output FIFO packet queues plus free/quarantine
// accounting, with none of the linked-list machinery under test.
type refModel struct {
	queues  [][]*packet.Packet
	free    int
	quar    map[int]bool // slots fully out of service
	pending map[int]bool // quarantine deferred until release
}

func newRefModel(outputs, capacity int) *refModel {
	return &refModel{
		queues:  make([][]*packet.Packet, outputs),
		free:    capacity,
		quar:    map[int]bool{},
		pending: map[int]bool{},
	}
}

// TestDAMQPropertyVsReference drives random enqueue/dequeue/quarantine
// sequences against the reference model, running the self-checker after
// every operation. This is the linked-list integrity property test: if
// any pointer-register update is wrong, either CheckInvariants fires or
// the pool's observable behaviour diverges from the model.
func TestDAMQPropertyVsReference(t *testing.T) {
	const (
		outputs  = 4
		capacity = 16
		ops      = 4000
	)
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		src := rng.New(seed)
		b := NewDAMQ(outputs, capacity)
		ref := newRefModel(outputs, capacity)
		nextID := uint64(1)

		check := func(op string, step int) {
			t.Helper()
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d after %s: %v\n%s", seed, step, op, err, b.Dump())
			}
			if b.Free() != ref.free {
				t.Fatalf("seed %d step %d after %s: free=%d ref=%d", seed, step, op, b.Free(), ref.free)
			}
			if b.Quarantined() != len(ref.quar) {
				t.Fatalf("seed %d step %d after %s: quarantined=%d ref=%d", seed, step, op, b.Quarantined(), len(ref.quar))
			}
			total := 0
			for out := 0; out < outputs; out++ {
				if b.QueueLen(out) != len(ref.queues[out]) {
					t.Fatalf("seed %d step %d after %s: queue %d len=%d ref=%d",
						seed, step, op, out, b.QueueLen(out), len(ref.queues[out]))
				}
				total += len(ref.queues[out])
				var want *packet.Packet
				if len(ref.queues[out]) > 0 {
					want = ref.queues[out][0]
				}
				if got := b.Head(out); got != want {
					t.Fatalf("seed %d step %d after %s: queue %d head=%v ref=%v", seed, step, op, out, got, want)
				}
			}
			if b.Len() != total {
				t.Fatalf("seed %d step %d after %s: len=%d ref=%d", seed, step, op, b.Len(), total)
			}
		}

		for step := 0; step < ops; step++ {
			switch r := src.Float64(); {
			case r < 0.45: // enqueue
				slots := 1 + src.Intn(4)
				out := src.Intn(outputs)
				p := &packet.Packet{ID: nextID, Dest: out, OutPort: out, Slots: slots}
				nextID++
				canRef := slots <= ref.free
				if got := b.CanAccept(p); got != canRef {
					t.Fatalf("seed %d step %d: CanAccept=%v ref=%v (slots %d free %d)",
						seed, step, got, canRef, slots, ref.free)
				}
				err := b.Accept(p)
				if canRef {
					if err != nil {
						t.Fatalf("seed %d step %d: Accept: %v", seed, step, err)
					}
					ref.queues[out] = append(ref.queues[out], p)
					ref.free -= slots
				} else if err == nil {
					t.Fatalf("seed %d step %d: Accept succeeded with free=%d need=%d", seed, step, ref.free, slots)
				}
				check("accept", step)
			case r < 0.85: // dequeue
				out := src.Intn(outputs)
				got := b.Pop(out)
				if len(ref.queues[out]) == 0 {
					if got != nil {
						t.Fatalf("seed %d step %d: Pop(%d) = %v from empty queue", seed, step, out, got)
					}
				} else {
					want := ref.queues[out][0]
					if got != want {
						t.Fatalf("seed %d step %d: Pop(%d) = %v, ref %v", seed, step, out, got, want)
					}
					ref.queues[out] = ref.queues[out][1:]
					// Released slots rejoin the pool unless marked for
					// deferred quarantine. The reference does not track
					// which physical slots a packet occupies (that is
					// the implementation detail under test), so it
					// reconciles pending marks against the
					// implementation's quarantine state and derives
					// free from its own occupancy bookkeeping.
					for s := 0; s < capacity; s++ {
						if ref.pending[s] && ref.quarReconcile(b, s) {
							delete(ref.pending, s)
						}
					}
					ref.free = capacity - len(ref.quar)
					for _, q := range ref.queues {
						for _, p := range q {
							ref.free -= p.Slots
						}
					}
				}
				check("pop", step)
			default: // quarantine a random slot
				s := src.Intn(capacity)
				got := b.QuarantineSlot(s)
				already := ref.quar[s] || ref.pending[s]
				if got == already {
					t.Fatalf("seed %d step %d: QuarantineSlot(%d) = %v, already=%v", seed, step, s, got, already)
				}
				if !already {
					if b.Quarantined() > len(ref.quar) {
						// Took effect immediately: the slot was free.
						ref.quar[s] = true
						ref.free--
					} else {
						ref.pending[s] = true
					}
				}
				check("quarantine", step)
			}
		}
	}
}

// quarReconcile moves slot s from pending to quarantined in the model iff
// the implementation has done so.
func (m *refModel) quarReconcile(b *Buffer, s int) bool {
	if b.Pool().slotOut(s) {
		m.quar[s] = true
		return true
	}
	return false
}

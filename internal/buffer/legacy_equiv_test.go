package buffer

// This file preserves the seed (pre-split) implementations of the five
// legacy kinds verbatim — renamed legacy* — and pins the policy×storage
// compositions bit-identical to them: same admission decisions, same
// error text, same observable state after any operation sequence. If a
// refactor of the split changes any legacy kind's behaviour, this is the
// test that names the divergence.

import (
	"fmt"
	"testing"

	"damq/internal/packet"
	"damq/internal/pktq"
	"damq/internal/rng"
)

// ---- seed FIFO (fifo.go at PR 8) ----

type legacyFIFO struct {
	numOutputs int
	capacity   int
	used       int
	q          pktq.Queue
}

func newLegacyFIFO(numOutputs, capacity int) *legacyFIFO {
	return &legacyFIFO{numOutputs: numOutputs, capacity: capacity}
}

func (b *legacyFIFO) Kind() Kind            { return FIFO }
func (b *legacyFIFO) NumOutputs() int       { return b.numOutputs }
func (b *legacyFIFO) Capacity() int         { return b.capacity }
func (b *legacyFIFO) Free() int             { return b.capacity - b.used }
func (b *legacyFIFO) Len() int              { return b.q.Len() }
func (b *legacyFIFO) Empty() bool           { return b.q.Len() == 0 }
func (b *legacyFIFO) MaxReadsPerCycle() int { return 1 }

func (b *legacyFIFO) CanAccept(p *packet.Packet) bool {
	return p.Slots <= b.Free()
}

func (b *legacyFIFO) Accept(p *packet.Packet) error {
	if p.OutPort < 0 || p.OutPort >= b.numOutputs {
		return fmt.Errorf("fifo: %w: %d", ErrBadPort, p.OutPort)
	}
	if !b.CanAccept(p) {
		return fmt.Errorf("fifo: %w (free %d, need %d)", ErrFull, b.Free(), p.Slots)
	}
	b.used += p.Slots
	b.q.PushBack(p)
	return nil
}

func (b *legacyFIFO) QueueLen(out int) int {
	head := b.q.Front()
	if head == nil || head.OutPort != out {
		return 0
	}
	return b.q.Len()
}

func (b *legacyFIFO) Head(out int) *packet.Packet {
	head := b.q.Front()
	if head == nil || head.OutPort != out {
		return nil
	}
	return head
}

func (b *legacyFIFO) Pop(out int) *packet.Packet {
	p := b.Head(out)
	if p == nil {
		return nil
	}
	b.q.PopFront()
	b.used -= p.Slots
	return p
}

func (b *legacyFIFO) Reset() {
	b.q.Reset()
	b.used = 0
}

// ---- seed SAMQ/SAFC (static.go at PR 8) ----

type legacyStatic struct {
	kind       Kind
	numOutputs int
	perQueue   int
	pkts       int
	queues     []legacyStaticQueue
}

type legacyStaticQueue struct {
	used int
	pkts pktq.Queue
}

func newLegacyStatic(kind Kind, numOutputs, capacity int) *legacyStatic {
	return &legacyStatic{
		kind:       kind,
		numOutputs: numOutputs,
		perQueue:   capacity / numOutputs,
		queues:     make([]legacyStaticQueue, numOutputs),
	}
}

func (b *legacyStatic) Kind() Kind      { return b.kind }
func (b *legacyStatic) NumOutputs() int { return b.numOutputs }
func (b *legacyStatic) Capacity() int   { return b.perQueue * b.numOutputs }

func (b *legacyStatic) Free() int {
	free := 0
	for i := range b.queues {
		free += b.perQueue - b.queues[i].used
	}
	return free
}

func (b *legacyStatic) QueueFree(out int) int {
	return b.perQueue - b.queues[out].used
}

func (b *legacyStatic) Len() int    { return b.pkts }
func (b *legacyStatic) Empty() bool { return b.pkts == 0 }

func (b *legacyStatic) MaxReadsPerCycle() int {
	if b.kind == SAFC {
		return b.numOutputs
	}
	return 1
}

func (b *legacyStatic) CanAccept(p *packet.Packet) bool {
	if p.OutPort < 0 || p.OutPort >= b.numOutputs {
		return false
	}
	return p.Slots <= b.QueueFree(p.OutPort)
}

func (b *legacyStatic) Accept(p *packet.Packet) error {
	if p.OutPort < 0 || p.OutPort >= b.numOutputs {
		return fmt.Errorf("%v: %w: %d", b.kind, ErrBadPort, p.OutPort)
	}
	if !b.CanAccept(p) {
		return fmt.Errorf("%v: %w (queue %d free %d, need %d)",
			b.kind, ErrFull, p.OutPort, b.QueueFree(p.OutPort), p.Slots)
	}
	q := &b.queues[p.OutPort]
	q.used += p.Slots
	q.pkts.PushBack(p)
	b.pkts++
	return nil
}

func (b *legacyStatic) QueueLen(out int) int { return b.queues[out].pkts.Len() }

func (b *legacyStatic) Head(out int) *packet.Packet {
	return b.queues[out].pkts.Front()
}

func (b *legacyStatic) Pop(out int) *packet.Packet {
	q := &b.queues[out]
	p := q.pkts.PopFront()
	if p == nil {
		return nil
	}
	q.used -= p.Slots
	b.pkts--
	return p
}

func (b *legacyStatic) Reset() {
	for i := range b.queues {
		b.queues[i].pkts.Reset()
		b.queues[i].used = 0
	}
	b.pkts = 0
}

// ---- seed DAMQ (damq.go at PR 8), including slot quarantine ----

type legacyDAMQ struct {
	numOutputs int
	capacity   int

	next  []int32
	owner []*packet.Packet

	freeHead  int32
	freeTail  int32
	freeCount int
	pkts      int

	qHead  []int32
	qTail  []int32
	qPkts  []int
	qSlots []int

	quar      []uint8
	quarCount int
}

func newLegacyDAMQ(numOutputs, capacity int) *legacyDAMQ {
	b := &legacyDAMQ{
		numOutputs: numOutputs,
		capacity:   capacity,
		next:       make([]int32, capacity),
		owner:      make([]*packet.Packet, capacity),
		qHead:      make([]int32, numOutputs),
		qTail:      make([]int32, numOutputs),
		qPkts:      make([]int, numOutputs),
		qSlots:     make([]int, numOutputs),
	}
	b.Reset()
	return b
}

func (b *legacyDAMQ) Kind() Kind            { return DAMQ }
func (b *legacyDAMQ) NumOutputs() int       { return b.numOutputs }
func (b *legacyDAMQ) Capacity() int         { return b.capacity }
func (b *legacyDAMQ) Free() int             { return b.freeCount }
func (b *legacyDAMQ) MaxReadsPerCycle() int { return 1 }
func (b *legacyDAMQ) Len() int              { return b.pkts }
func (b *legacyDAMQ) Empty() bool           { return b.pkts == 0 }

func (b *legacyDAMQ) CanAccept(p *packet.Packet) bool {
	return p.Slots <= b.freeCount
}

func (b *legacyDAMQ) takeFree() int32 {
	s := b.freeHead
	b.freeHead = b.next[s]
	if b.freeHead == nilSlot {
		b.freeTail = nilSlot
	}
	b.freeCount--
	return s
}

func (b *legacyDAMQ) giveFree(s int32) {
	if b.quar != nil && b.quar[s] == slotQuarPending {
		b.quar[s] = slotQuarantined
		b.quarCount++
		b.next[s] = nilSlot
		b.owner[s] = nil
		return
	}
	b.next[s] = nilSlot
	b.owner[s] = nil
	if b.freeTail == nilSlot {
		b.freeHead = s
	} else {
		b.next[b.freeTail] = s
	}
	b.freeTail = s
	b.freeCount++
}

func (b *legacyDAMQ) Accept(p *packet.Packet) error {
	out := p.OutPort
	if out < 0 || out >= b.numOutputs {
		return fmt.Errorf("damq: %w: %d", ErrBadPort, out)
	}
	if p.Slots <= 0 {
		return fmt.Errorf("damq: packet %v has non-positive slot count", p)
	}
	if p.Slots > b.freeCount {
		return fmt.Errorf("damq: %w (free %d, need %d)", ErrFull, b.freeCount, p.Slots)
	}
	first := b.takeFree()
	b.owner[first] = p
	last := first
	for i := 1; i < p.Slots; i++ {
		s := b.takeFree()
		b.next[last] = s
		last = s
	}
	b.next[last] = nilSlot

	if b.qTail[out] == nilSlot {
		b.qHead[out] = first
	} else {
		b.next[b.qTail[out]] = first
	}
	b.qTail[out] = last
	b.qPkts[out]++
	b.qSlots[out] += p.Slots
	b.pkts++
	return nil
}

func (b *legacyDAMQ) QueueLen(out int) int { return b.qPkts[out] }

func (b *legacyDAMQ) Head(out int) *packet.Packet {
	if b.qPkts[out] == 0 {
		return nil
	}
	return b.owner[b.qHead[out]]
}

func (b *legacyDAMQ) Pop(out int) *packet.Packet {
	if b.qPkts[out] == 0 {
		return nil
	}
	first := b.qHead[out]
	p := b.owner[first]
	s := first
	for i := 0; i < p.Slots; i++ {
		n := b.next[s]
		b.giveFree(s)
		s = n
	}
	b.qHead[out] = s
	if s == nilSlot {
		b.qTail[out] = nilSlot
	}
	b.qPkts[out]--
	b.qSlots[out] -= p.Slots
	b.pkts--
	return p
}

func (b *legacyDAMQ) QuarantineSlot(s int) bool {
	if s < 0 || s >= b.capacity {
		panic(fmt.Sprintf("damq: QuarantineSlot(%d) out of range [0,%d)", s, b.capacity))
	}
	if b.quar == nil {
		b.quar = make([]uint8, b.capacity)
	}
	if b.quar[s] != slotHealthy {
		return false
	}
	prev := nilSlot
	for cur := b.freeHead; cur != nilSlot; cur = b.next[cur] {
		if cur == int32(s) {
			if prev == nilSlot {
				b.freeHead = b.next[cur]
			} else {
				b.next[prev] = b.next[cur]
			}
			if b.freeTail == cur {
				b.freeTail = prev
			}
			b.freeCount--
			b.next[cur] = nilSlot
			b.quar[s] = slotQuarantined
			b.quarCount++
			return true
		}
		prev = cur
	}
	b.quar[s] = slotQuarPending
	return true
}

func (b *legacyDAMQ) Quarantined() int { return b.quarCount }

func (b *legacyDAMQ) Reset() {
	b.quar = nil
	b.quarCount = 0
	for i := range b.next {
		b.next[i] = int32(i + 1)
		b.owner[i] = nil
	}
	if b.capacity > 0 {
		b.next[b.capacity-1] = nilSlot
		b.freeHead = 0
		b.freeTail = int32(b.capacity - 1)
	} else {
		b.freeHead, b.freeTail = nilSlot, nilSlot
	}
	b.freeCount = b.capacity
	for i := 0; i < b.numOutputs; i++ {
		b.qHead[i] = nilSlot
		b.qTail[i] = nilSlot
		b.qPkts[i] = 0
		b.qSlots[i] = 0
	}
	b.pkts = 0
}

// ---- seed DAFC (dafc.go at PR 8) ----

type legacyDAFC struct {
	*legacyDAMQ
}

func (b *legacyDAFC) Kind() Kind            { return DAFC }
func (b *legacyDAFC) MaxReadsPerCycle() int { return b.NumOutputs() }

// quarantiner is the fault-injection surface DAMQ-pooled kinds expose.
type quarantiner interface {
	QuarantineSlot(int) bool
	Quarantined() int
}

// seedBuffer is the Buffer contract as the seed kinds implemented it,
// before HeadMask and CanAcceptTo joined it; compareState checks those
// two on the composed side against the seed twin's Head and CanAccept.
type seedBuffer interface {
	Kind() Kind
	NumOutputs() int
	Capacity() int
	Free() int
	Len() int
	Empty() bool
	CanAccept(p *packet.Packet) bool
	Accept(p *packet.Packet) error
	QueueLen(out int) int
	Head(out int) *packet.Packet
	Pop(out int) *packet.Packet
	MaxReadsPerCycle() int
	Reset()
}

func newLegacyBuffer(t *testing.T, k Kind, outputs, capacity int) seedBuffer {
	t.Helper()
	switch k {
	case FIFO:
		return newLegacyFIFO(outputs, capacity)
	case SAMQ, SAFC:
		return newLegacyStatic(k, outputs, capacity)
	case DAMQ:
		return newLegacyDAMQ(outputs, capacity)
	case DAFC:
		return &legacyDAFC{newLegacyDAMQ(outputs, capacity)}
	default:
		t.Fatalf("no legacy implementation for %v", k)
		return nil
	}
}

// compareState fails the test when the composed buffer's observable
// state differs in any way from the legacy implementation's.
func compareState(t *testing.T, k Kind, seed uint64, step int, op string, got *Buffer, want seedBuffer) {
	t.Helper()
	if got.Len() != want.Len() || got.Free() != want.Free() || got.Empty() != want.Empty() {
		t.Fatalf("%v seed %d step %d after %s: len/free/empty = %d/%d/%v, legacy %d/%d/%v",
			k, seed, step, op, got.Len(), got.Free(), got.Empty(), want.Len(), want.Free(), want.Empty())
	}
	if got.Capacity() != want.Capacity() || got.MaxReadsPerCycle() != want.MaxReadsPerCycle() ||
		got.Kind() != want.Kind() || got.NumOutputs() != want.NumOutputs() {
		t.Fatalf("%v seed %d step %d: static facts diverge", k, seed, step)
	}
	for out := 0; out < want.NumOutputs(); out++ {
		if got.QueueLen(out) != want.QueueLen(out) {
			t.Fatalf("%v seed %d step %d after %s: QueueLen(%d) = %d, legacy %d",
				k, seed, step, op, out, got.QueueLen(out), want.QueueLen(out))
		}
		if got.Head(out) != want.Head(out) {
			t.Fatalf("%v seed %d step %d after %s: Head(%d) = %v, legacy %v",
				k, seed, step, op, out, got.Head(out), want.Head(out))
		}
		if bit := got.HeadMask()>>uint(out)&1 != 0; bit != (want.Head(out) != nil) {
			t.Fatalf("%v seed %d step %d after %s: HeadMask bit %d = %v, legacy Head %v",
				k, seed, step, op, out, bit, want.Head(out))
		}
	}
	gq, gok := got, KindSharesPool(k)
	lq, lok := want.(quarantiner)
	if gok != lok {
		t.Fatalf("%v: quarantine surface differs: composed %v, legacy %v", k, gok, lok)
	}
	if gok && gq.Quarantined() != lq.Quarantined() {
		t.Fatalf("%v seed %d step %d after %s: Quarantined = %d, legacy %d",
			k, seed, step, op, gq.Quarantined(), lq.Quarantined())
	}
}

// TestLegacyKindsBitIdentical drives the composed implementation of each
// legacy kind and its preserved seed twin through the same random
// operation sequence — accepts (in- and out-of-range ports, 1–4 slot
// packets), pops, slot quarantines, resets — across 5 seeds, comparing
// every admission decision, error message, returned packet, and counter
// after every step. The same *packet.Packet pointers flow into both
// buffers, so Head/Pop comparisons are identity, not just equality.
func TestLegacyKindsBitIdentical(t *testing.T) {
	const (
		outputs  = 4
		capacity = 8
		ops      = 3000
	)
	for _, k := range []Kind{FIFO, SAMQ, SAFC, DAMQ, DAFC} {
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			src := rng.New(seed)
			composed := MustNew(Config{Kind: k, NumOutputs: outputs, Capacity: capacity})
			legacy := newLegacyBuffer(t, k, outputs, capacity)
			var id uint64

			for step := 0; step < ops; step++ {
				switch r := src.Float64(); {
				case r < 0.48: // accept
					out := src.Intn(outputs + 2)
					if src.Bool(0.05) {
						out = -1 // exercise the bad-port error path
					}
					id++
					p := &packet.Packet{ID: id, Dest: out, OutPort: out, Slots: src.Intn(4) + 1}
					if gc, lc := composed.CanAccept(p), legacy.CanAccept(p); gc != lc {
						t.Fatalf("%v seed %d step %d: CanAccept = %v, legacy %v (out %d slots %d)",
							k, seed, step, gc, lc, out, p.Slots)
					}
					if gt := composed.CanAcceptTo(out, &packet.Packet{ID: id, Slots: p.Slots}); gt != composed.CanAccept(p) {
						t.Fatalf("%v seed %d step %d: CanAcceptTo(%d) on an unrouted copy = %v, CanAccept %v",
							k, seed, step, out, gt, !gt)
					}
					ge, le := composed.Accept(p), legacy.Accept(p)
					if (ge == nil) != (le == nil) {
						t.Fatalf("%v seed %d step %d: Accept err = %v, legacy %v", k, seed, step, ge, le)
					}
					if ge != nil && ge.Error() != le.Error() {
						t.Fatalf("%v seed %d step %d: Accept error text diverges:\n  composed: %s\n  legacy:   %s",
							k, seed, step, ge, le)
					}
					compareState(t, k, seed, step, "accept", composed, legacy)
				case r < 0.88: // pop
					out := src.Intn(outputs)
					if gp, lp := composed.Pop(out), legacy.Pop(out); gp != lp {
						t.Fatalf("%v seed %d step %d: Pop(%d) = %v, legacy %v", k, seed, step, out, gp, lp)
					}
					compareState(t, k, seed, step, "pop", composed, legacy)
				case r < 0.96: // quarantine a random slot, where supported
					s := src.Intn(capacity)
					gq, gok := composed, KindSharesPool(k)
					lq, lok := legacy.(quarantiner)
					if gok != lok {
						t.Fatalf("%v: quarantine surface differs: composed %v, legacy %v", k, gok, lok)
					}
					if !gok {
						continue
					}
					if gr, lr := gq.QuarantineSlot(s), lq.QuarantineSlot(s); gr != lr {
						t.Fatalf("%v seed %d step %d: QuarantineSlot(%d) = %v, legacy %v",
							k, seed, step, s, gr, lr)
					}
					compareState(t, k, seed, step, "quarantine", composed, legacy)
				default: // reset (rare)
					composed.Reset()
					legacy.Reset()
					compareState(t, k, seed, step, "reset", composed, legacy)
				}
			}
		}
	}
}

// TestComposedKindsReportPolicies pins the policy names the split
// assigns to each kind — these appear in validation errors and reports.
func TestComposedKindsReportPolicies(t *testing.T) {
	want := map[Kind]string{
		FIFO:   "complete-sharing",
		SAMQ:   "complete-partitioning",
		SAFC:   "complete-partitioning",
		DAMQ:   "complete-sharing",
		DAFC:   "complete-sharing",
		DT:     "dynamic-threshold",
		FB:     "fb-flexible",
		BSHARE: "bshare-delay",
	}
	for k, name := range want {
		if got := k.PolicyName(); got != name {
			t.Errorf("%v.PolicyName() = %q, want %q", k, got, name)
		}
	}
}

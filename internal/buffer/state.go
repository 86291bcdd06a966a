package buffer

import (
	"fmt"

	"damq/internal/packet"
)

// This file is the buffer half of the simulator checkpoint codec
// (DESIGN.md §13): the slot pool's exact register state — linked free
// list, per-slot next pointers, queue head/tail registers, quarantine
// bytes, and the BShare clock — is what Restore must reproduce, because
// slot assignment order is observable (quarantine schedules target slot
// indices and delay-driven admission reads enqueue stamps). The derived
// per-view and per-group counters of the buffer views are not
// serialized; ResyncAfterRestore recomputes them and then audits the
// loaded pool with CheckInvariants. The pool's occupancy word is derived
// too: LoadState rebuilds it from the per-queue packet counters.

// SlotPoolState is the serializable state of one SlotPool, one slice
// per register kind (checkpoint format v1), whatever the pool's own
// register layout. Owner maps each slot to an index into Packets (-1 for
// none), so the caller serializes packet bodies once each, in slot order
// of their first slots.
type SlotPoolState struct {
	Next      []int32
	Owner     []int32
	FreeHead  int32
	FreeTail  int32
	FreeCount int
	QHead     []int32
	QTail     []int32
	QPkts     []int
	QSlots    []int
	Quar      []uint8 // nil when no quarantine state exists
	QuarCount int
	HasClock  bool
	Stamp     []int64
	Now       int64
	Packets   []*packet.Packet
}

// SaveState captures the pool's register state. All slices are copies;
// the packet pointers are shared (checkpointing serializes their fields,
// it does not mutate them).
func (sp *SlotPool) SaveState() *SlotPoolState {
	st := &SlotPoolState{
		Next:      make([]int32, sp.capacity),
		Owner:     make([]int32, sp.capacity),
		FreeHead:  sp.freeHead,
		FreeTail:  sp.freeTail,
		FreeCount: sp.freeCount,
		QHead:     make([]int32, sp.numQueues),
		QTail:     make([]int32, sp.numQueues),
		QPkts:     make([]int, sp.numQueues),
		QSlots:    make([]int, sp.numQueues),
		QuarCount: sp.quarCount,
		HasClock:  sp.stamp != nil,
		Now:       sp.now,
	}
	for q, qr := range sp.queues {
		st.QHead[q], st.QTail[q] = qr.head, qr.tail
		st.QPkts[q], st.QSlots[q] = int(qr.pkts), int(qr.slots)
	}
	if sp.quar != nil {
		st.Quar = append([]uint8(nil), sp.quar...)
	}
	if sp.stamp != nil {
		st.Stamp = append([]int64(nil), sp.stamp...)
	}
	for s, r := range sp.slots {
		st.Next[s] = r.next
		if r.owner == nil {
			st.Owner[s] = -1
			continue
		}
		st.Owner[s] = int32(len(st.Packets))
		st.Packets = append(st.Packets, r.owner)
	}
	return st
}

// LoadState overwrites the pool's registers with a previously saved
// state. It validates every index against the pool's construction-time
// geometry (which the caller has already rebuilt from the simulation
// config) so that the structural audit that follows — CheckInvariants,
// via ResyncAfterRestore — cannot be driven out of bounds by a corrupted
// stream. Any mismatch is an error; the pool is unchanged on failure
// only in the sense that the caller must treat it as dead.
func (sp *SlotPool) LoadState(st *SlotPoolState) error {
	if len(st.Next) != sp.capacity || len(st.Owner) != sp.capacity {
		return fmt.Errorf("slotpool: state for %d slots loaded into %d-slot pool", len(st.Next), sp.capacity)
	}
	if len(st.QHead) != sp.numQueues || len(st.QTail) != sp.numQueues ||
		len(st.QPkts) != sp.numQueues || len(st.QSlots) != sp.numQueues {
		return fmt.Errorf("slotpool: state for %d queues loaded into %d-queue pool", len(st.QHead), sp.numQueues)
	}
	if st.HasClock != (sp.stamp != nil) {
		return fmt.Errorf("slotpool: clock presence mismatch (state %v, pool %v)", st.HasClock, sp.stamp != nil)
	}
	if st.HasClock && len(st.Stamp) != sp.capacity {
		return fmt.Errorf("slotpool: %d enqueue stamps for %d slots", len(st.Stamp), sp.capacity)
	}
	if st.Quar != nil && len(st.Quar) != sp.capacity {
		return fmt.Errorf("slotpool: %d quarantine bytes for %d slots", len(st.Quar), sp.capacity)
	}
	inRange := func(s int32) bool { return s == nilSlot || (s >= 0 && int(s) < sp.capacity) }
	for _, s := range st.Next {
		if !inRange(s) {
			return fmt.Errorf("slotpool: next register points at invalid slot %d", s)
		}
	}
	for q := 0; q < sp.numQueues; q++ {
		if !inRange(st.QHead[q]) || !inRange(st.QTail[q]) {
			return fmt.Errorf("slotpool: queue %d head/tail registers out of range", q)
		}
		// The bounds also make the narrowing to the int32 queue
		// registers below exact.
		if st.QPkts[q] < 0 || st.QPkts[q] > sp.capacity || st.QSlots[q] < 0 || st.QSlots[q] > sp.capacity {
			return fmt.Errorf("slotpool: queue %d has impossible counters (%d pkts, %d slots)",
				q, st.QPkts[q], st.QSlots[q])
		}
	}
	if !inRange(st.FreeHead) || !inRange(st.FreeTail) ||
		st.FreeCount < 0 || st.FreeCount > sp.capacity {
		return fmt.Errorf("slotpool: free list registers out of range")
	}
	if st.QuarCount < 0 || st.QuarCount > sp.capacity {
		return fmt.Errorf("slotpool: quarantine count %d out of range", st.QuarCount)
	}
	for s, v := range st.Quar {
		if v > slotQuarantined {
			return fmt.Errorf("slotpool: slot %d has unknown quarantine state %d", s, v)
		}
	}
	seen := 0
	for s, idx := range st.Owner {
		if idx == -1 {
			continue
		}
		// Owner indices are assigned in slot order by SaveState, so a
		// well-formed state references Packets exactly once each, in
		// order.
		if int(idx) != seen || seen >= len(st.Packets) || st.Packets[seen] == nil {
			return fmt.Errorf("slotpool: slot %d owner index %d breaks packet order", s, idx)
		}
		seen++
	}
	if seen != len(st.Packets) {
		return fmt.Errorf("slotpool: %d owner slots for %d packets", seen, len(st.Packets))
	}
	// The free list is the one chain CheckInvariants does not tie to a
	// tail register; verify its termination, length, and tail here (all
	// indices are validated above, and the step bound kills cycles).
	last, steps := nilSlot, 0
	for s := st.FreeHead; s != nilSlot; s = st.Next[s] {
		if steps++; steps > sp.capacity {
			return fmt.Errorf("slotpool: free list is cyclic")
		}
		last = s
	}
	if steps != st.FreeCount || last != st.FreeTail {
		return fmt.Errorf("slotpool: free list walk (%d slots, tail %d) disagrees with registers (%d, %d)",
			steps, last, st.FreeCount, st.FreeTail)
	}
	clear(sp.occ)
	for q := range sp.queues {
		sp.queues[q] = queueReg{
			head: st.QHead[q], tail: st.QTail[q],
			pkts: int32(st.QPkts[q]), slots: int32(st.QSlots[q]),
		}
		if st.QPkts[q] > 0 {
			sp.occ[q>>6] |= 1 << uint(q&63)
		}
	}
	sp.freeHead, sp.freeTail, sp.freeCount = st.FreeHead, st.FreeTail, st.FreeCount
	sp.quar, sp.quarCount = nil, st.QuarCount
	if st.Quar != nil {
		sp.quar = append([]uint8(nil), st.Quar...)
	}
	if st.HasClock {
		copy(sp.stamp, st.Stamp)
	}
	sp.now = st.Now
	pkts := 0
	for s := range sp.slots {
		sp.slots[s] = slotReg{next: st.Next[s]}
		if st.Owner[s] != -1 {
			sp.slots[s].owner = st.Packets[st.Owner[s]]
			pkts++
		}
	}
	sp.pkts = pkts
	return nil
}

// ResyncAfterRestore recomputes the derived counters of the views over
// one freshly loaded storage group — per-view packet counts and, for
// class-aware policies, the pool-wide per-class slot tally — and then
// audits the pool with CheckInvariants. All of views must share one
// group: pass one per-port buffer alone, or every view of a shared pool
// together. The audit runs before any chain walk that rebuilds class
// tallies, so a corrupted stream fails with an error instead of looping.
func ResyncAfterRestore(views []*Buffer) error {
	if len(views) == 0 {
		return nil
	}
	g := views[0].g
	for _, b := range views[1:] {
		if b.g != g {
			return fmt.Errorf("buffer: restored views do not share one storage group")
		}
	}
	if err := g.checkInvariants(); err != nil {
		return err
	}
	for _, b := range views {
		qn := b.numOutputs
		if b.single {
			qn = 1
		}
		n := 0
		for q := b.qBase; q < b.qBase+qn; q++ {
			n += g.pool.QueueLen(q)
		}
		b.pkts = n
	}
	if g.classSlots != nil {
		for i := range g.classSlots {
			g.classSlots[i] = 0
		}
		for _, qr := range g.pool.queues {
			for s := qr.head; s != nilSlot; s = g.pool.slots[s].next {
				if p := g.pool.slots[s].owner; p != nil {
					g.classSlots[classOf(p, g.classes)] += p.Slots
				}
			}
		}
	}
	return nil
}

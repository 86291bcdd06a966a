package buffer

import (
	"fmt"
	"strings"

	"damq/internal/packet"
)

// SlotPool is the dynamically allocated slot pool of Tamir & Frazier —
// the storage half of every buffer kind in this package. It is
// deliberately implemented the way the hardware works rather than with
// Go slices:
//
//   - storage is a pool of fixed-size slots;
//   - every slot has a pointer register (next) naming the next slot of its
//     linked list;
//   - one linked list per queue holds that queue's packets in FIFO order,
//     plus one list of free slots;
//   - per-list head and tail registers locate the first and last slot.
//
// A packet occupying k slots is stored in k slots chained through their
// pointer registers; the last slot of a packet chains to the first slot of
// the next packet in the same queue, exactly as in the chip, so a queue is
// one continuous linked list of slots. Any free slot can serve any packet
// for any queue — this dynamic allocation is what distinguishes the pool
// from the statically partitioned SAMQ/SAFC admission policies layered on
// top of it.
//
// Queues are anonymous indices: a per-port buffer maps output ports to
// queues one-to-one, the switch-wide shared pool maps (input, output)
// pairs to queues, and a FIFO uses a single queue. That mapping lives in
// the composed Buffer, not here.
type SlotPool struct {
	numQueues int
	capacity  int

	slots  []slotReg  // per-slot registers
	queues []queueReg // per-queue registers

	freeHead  int32
	freeTail  int32
	freeCount int
	pkts      int // total packets across queues, kept for O(1) Packets

	// occ is the occupancy word: bit q is set iff queue q holds a packet,
	// the software form of the per-queue valid bits an arbiter reads in
	// one go. It is derived from the queue packet counts, never
	// serialized, and for pools of at most 64 queues it aliases occ1, so
	// it costs no allocation.
	occ  []uint64
	occ1 [1]uint64

	// Quarantine state, nil until the first QuarantineSlot call so the
	// fault-free pool pays nothing beyond one nil check in giveFree.
	// A quarantined slot is on no list: the pool's capacity shrinks
	// instead of a dead pointer register corrupting a linked list.
	quar      []uint8
	quarCount int

	// Clock state for delay-driven admission (BShare): stamp records the
	// pool tick at which each packet's first slot was enqueued. nil unless
	// EnableClock was called, so clockless kinds pay one nil check in Push.
	stamp []int64
	now   int64
}

// slotReg is one slot's registers: the packet whose *first* slot this
// is (nil for continuation and free slots) and the pointer register
// naming the next slot of its list.
type slotReg struct {
	owner *packet.Packet
	next  int32
}

// queueReg is one queue's registers: head and tail slot, and the packet
// and slot counts. Push and Pop touch one of these and the slots they
// move, so a queue operation reads a few cache lines, as the chip reads
// one register row.
type queueReg struct {
	head, tail  int32
	pkts, slots int32
}

const nilSlot = int32(-1)

// Quarantine slot states (entries of quar).
const (
	slotHealthy     uint8 = iota
	slotQuarPending       // in use; quarantine when its packet releases it
	slotQuarantined       // out of service, on no list
)

// NewSlotPool constructs a pool with the given queue count and total
// slot capacity.
func NewSlotPool(numQueues, capacity int) *SlotPool {
	sp := &SlotPool{}
	sp.init(numQueues, capacity)
	return sp
}

// init sets up a zero pool in place. A storage group holds its pool by
// value, one pointer hop closer to the admission path, and initializes
// it here; the pool must not be copied afterwards, since the occupancy
// word of a small pool points into the pool itself.
func (sp *SlotPool) init(numQueues, capacity int) {
	sp.numQueues = numQueues
	sp.capacity = capacity
	sp.slots = make([]slotReg, capacity)
	sp.queues = make([]queueReg, numQueues)
	sp.occ = sp.occ1[:]
	if numQueues > 64 {
		sp.occ = make([]uint64, (numQueues+63)/64)
	}
	sp.Reset()
}

func (sp *SlotPool) NumQueues() int { return sp.numQueues }
func (sp *SlotPool) Capacity() int  { return sp.capacity }

// FreeSlots is the number of slots available to a new packet, across the
// whole pool.
// damqvet:hotpath
func (sp *SlotPool) FreeSlots() int { return sp.freeCount }

// Packets is the number of packets stored across all queues, in O(1).
// damqvet:hotpath
func (sp *SlotPool) Packets() int { return sp.pkts }

// QueueLen is the number of packets in queue q.
// damqvet:hotpath
func (sp *SlotPool) QueueLen(q int) int { return int(sp.queues[q].pkts) }

// QueueSlots is the number of slots held by queue q.
// damqvet:hotpath
func (sp *SlotPool) QueueSlots(q int) int { return int(sp.queues[q].slots) }

// UsedSlots is the number of slots holding packet data: capacity less
// the free and the quarantined slots, which CheckInvariants proves equals
// the sum of the per-queue slot counts. O(1).
// damqvet:hotpath
func (sp *SlotPool) UsedSlots() int { return sp.capacity - sp.freeCount - sp.quarCount }

// Head returns the first packet of queue q without removing it, or nil.
// damqvet:hotpath
func (sp *SlotPool) Head(q int) *packet.Packet {
	qr := &sp.queues[q]
	if qr.pkts == 0 {
		return nil
	}
	return sp.slots[qr.head].owner
}

// takeFree removes and returns the head of the free list.
// damqvet:hotpath
func (sp *SlotPool) takeFree() int32 {
	s := sp.freeHead
	sp.freeHead = sp.slots[s].next
	if sp.freeHead == nilSlot {
		sp.freeTail = nilSlot
	}
	sp.freeCount--
	return s
}

// giveFree appends slot s to the free list, mirroring the transmission
// manager FSM returning freed slots. A slot marked for quarantine is
// diverted out of service instead of rejoining the pool.
// damqvet:hotpath
func (sp *SlotPool) giveFree(s int32) {
	sp.slots[s] = slotReg{next: nilSlot}
	if sp.quar != nil && sp.quar[s] == slotQuarPending {
		sp.quar[s] = slotQuarantined
		sp.quarCount++
		return
	}
	if sp.freeTail == nilSlot {
		sp.freeHead = s
	} else {
		sp.slots[sp.freeTail].next = s
	}
	sp.freeTail = s
	sp.freeCount++
}

// Push stores p at the tail of queue q. The caller must have established
// admission: p.Slots in [1, FreeSlots()]. The packet's slots are pulled
// off the free list and chained; the first slot records the packet (the
// hardware's header/length registers are associated with the packet's
// first slot).
// damqvet:hotpath
func (sp *SlotPool) Push(q int, p *packet.Packet) {
	first := sp.takeFree()
	sp.slots[first].owner = p
	if sp.stamp != nil {
		sp.stamp[first] = sp.now
	}
	last := first
	for i := 1; i < p.Slots; i++ {
		s := sp.takeFree()
		sp.slots[last].next = s
		last = s
	}
	sp.slots[last].next = nilSlot

	// Append to the queue: point the old tail's slot at the packet's first
	// slot, then move the tail register.
	qr := &sp.queues[q]
	if qr.tail == nilSlot {
		qr.head = first
	} else {
		sp.slots[qr.tail].next = first
	}
	qr.tail = last
	qr.pkts++
	qr.slots += int32(p.Slots)
	sp.pkts++
	sp.occ[q>>6] |= 1 << uint(q&63)
}

// Pop removes and returns the head packet of queue q, or nil.
// damqvet:hotpath
func (sp *SlotPool) Pop(q int) *packet.Packet {
	qr := &sp.queues[q]
	if qr.pkts == 0 {
		return nil
	}
	s := qr.head
	p := sp.slots[s].owner
	// Walk the packet's slots, advancing the head register and returning
	// each slot to the free list as the hardware does after transmission.
	for i := 0; i < p.Slots; i++ {
		n := sp.slots[s].next
		sp.giveFree(s)
		s = n
	}
	qr.head = s
	if s == nilSlot {
		qr.tail = nilSlot
	}
	qr.pkts--
	qr.slots -= int32(p.Slots)
	sp.pkts--
	if qr.pkts == 0 {
		sp.occ[q>>6] &^= 1 << uint(q&63)
	}
	return p
}

// occupied returns the occupancy bits of queues [base, base+n) as a mask
// whose bit i stands for queue base+i; n is at most 64. A per-port view
// reads its row of a shared pool's word with one shift and one mask.
// damqvet:hotpath
func (sp *SlotPool) occupied(base, n int) uint64 {
	w, sh := base>>6, uint(base&63)
	m := sp.occ[w] >> sh
	if sh+uint(n) > 64 {
		m |= sp.occ[w+1] << (64 - sh)
	}
	return m & (1<<uint(n) - 1)
}

// EnableClock allocates the per-slot enqueue stamps that HeadAge reads.
// Kinds whose admission policy is delay-driven (BShare) call it at
// construction; all other kinds leave the clock off and Push skips the
// stamp write.
func (sp *SlotPool) EnableClock() {
	if sp.stamp == nil {
		sp.stamp = make([]int64, sp.capacity)
	}
}

// Tick advances the pool clock by one cycle. The owning switch calls it
// once per long clock; under sharding the simulator calls it from the
// inject phase so it never races with cross-shard admission probes.
// damqvet:hotpath
func (sp *SlotPool) Tick() { sp.now++ }

// Now is the current pool tick.
// damqvet:hotpath
func (sp *SlotPool) Now() int64 { return sp.now }

// HeadAge is how many ticks the head packet of queue q has waited, or 0
// for an empty queue. It requires EnableClock; without it every age
// reads 0.
// damqvet:hotpath
func (sp *SlotPool) HeadAge(q int) int64 {
	qr := &sp.queues[q]
	if qr.pkts == 0 || sp.stamp == nil {
		return 0
	}
	return sp.now - sp.stamp[qr.head]
}

// QuarantineSlot takes slot s out of service, modelling a stuck-at/dead
// slot detected by the hardware's self-test. A free slot is unlinked from
// the free list immediately; a slot currently holding packet data keeps
// serving its packet and is diverted to quarantine when released (yanking
// a live slot would corrupt its packet's chain — exactly the failure mode
// quarantine exists to prevent). Capacity shrinks by one either way; the
// nominal Capacity() is unchanged so occupancy ratios stay comparable.
//
// Returns true if this call newly removed the slot from service, false if
// it was already quarantined or pending. This is a cold path: it may
// allocate (first call) and walk the free list.
func (sp *SlotPool) QuarantineSlot(s int) bool {
	if s < 0 || s >= sp.capacity {
		panic(fmt.Sprintf("slotpool: QuarantineSlot(%d) out of range [0,%d)", s, sp.capacity))
	}
	if sp.quar == nil {
		sp.quar = make([]uint8, sp.capacity)
	}
	if sp.quar[s] != slotHealthy {
		return false
	}
	// Unlink from the free list if present; otherwise the slot is in use.
	prev := nilSlot
	for cur := sp.freeHead; cur != nilSlot; cur = sp.slots[cur].next {
		if cur == int32(s) {
			if prev == nilSlot {
				sp.freeHead = sp.slots[cur].next
			} else {
				sp.slots[prev].next = sp.slots[cur].next
			}
			if sp.freeTail == cur {
				sp.freeTail = prev
			}
			sp.freeCount--
			sp.slots[cur].next = nilSlot
			sp.quar[s] = slotQuarantined
			sp.quarCount++
			return true
		}
		prev = cur
	}
	sp.quar[s] = slotQuarPending
	return true
}

// Quarantined reports how many slots are fully out of service (pending
// slots still serving a packet are not counted until released).
func (sp *SlotPool) Quarantined() int { return sp.quarCount }

// QuarantinedIn counts fully out-of-service slots in [lo, hi). A shared
// pool's per-port views use it to report their own window's casualties.
// Cold path.
func (sp *SlotPool) QuarantinedIn(lo, hi int) int {
	if sp.quar == nil {
		return 0
	}
	n := 0
	for s := lo; s < hi; s++ {
		if sp.quar[s] == slotQuarantined {
			n++
		}
	}
	return n
}

// slotOut reports whether slot s is fully quarantined; tests reconcile
// deferred quarantine against it.
func (sp *SlotPool) slotOut(s int) bool {
	return sp.quar != nil && sp.quar[s] == slotQuarantined
}

// Reset returns every slot to the free list, in index order. Reset models
// a power cycle: quarantine state and the clock are cleared and every
// slot rejoins the pool.
func (sp *SlotPool) Reset() {
	sp.quar = nil
	sp.quarCount = 0
	sp.now = 0
	for i := range sp.slots {
		sp.slots[i] = slotReg{next: int32(i + 1)}
	}
	if sp.capacity > 0 {
		sp.slots[sp.capacity-1].next = nilSlot
		sp.freeHead = 0
		sp.freeTail = int32(sp.capacity - 1)
	} else {
		sp.freeHead, sp.freeTail = nilSlot, nilSlot
	}
	sp.freeCount = sp.capacity
	for i := range sp.queues {
		sp.queues[i] = queueReg{head: nilSlot, tail: nilSlot}
	}
	clear(sp.occ)
	sp.pkts = 0
}

// CheckInvariants verifies the structural health of the slot pool: every
// slot is on exactly one list (or quarantined and on none), per-queue
// counters match the lists, queue order is intact, and free accounting is
// exact. expect, if non-nil, maps a queue index to the OutPort every
// packet on that queue must carry (the composed buffer supplies its
// queue-to-port layout); pass nil to skip the routing check. Tests call
// it after random operation sequences; it is the software analogue of the
// FSM synchronization argument in Section 3.2.3 of the paper.
func (sp *SlotPool) CheckInvariants(expect func(q int) int) error {
	seen := make([]bool, sp.capacity)

	walk := func(head int32, name string) (slots int, err error) {
		for s := head; s != nilSlot; s = sp.slots[s].next {
			if s < 0 || int(s) >= sp.capacity {
				return 0, fmt.Errorf("slotpool: %s list points at invalid slot %d", name, s)
			}
			if seen[s] {
				return 0, fmt.Errorf("slotpool: slot %d appears on two lists (second: %s)", s, name)
			}
			seen[s] = true
			slots++
			if slots > sp.capacity {
				return 0, fmt.Errorf("slotpool: %s list is cyclic", name)
			}
		}
		return slots, nil
	}

	freeSlots, err := walk(sp.freeHead, "free")
	if err != nil {
		return err
	}
	if freeSlots != sp.freeCount {
		return fmt.Errorf("slotpool: free list has %d slots, counter says %d", freeSlots, sp.freeCount)
	}
	for s := sp.freeHead; s != nilSlot; s = sp.slots[s].next {
		if sp.quar != nil && sp.quar[s] == slotQuarantined {
			return fmt.Errorf("slotpool: quarantined slot %d is on the free list", s)
		}
	}

	total := freeSlots
	for q := 0; q < sp.numQueues; q++ {
		// Walk the queue packet by packet to validate per-packet chaining.
		qr := sp.queues[q]
		s := qr.head
		pkts, slots := 0, 0
		for s != nilSlot {
			p := sp.slots[s].owner
			if p == nil {
				return fmt.Errorf("slotpool: queue %d head slot %d has no owner packet", q, s)
			}
			if expect != nil {
				if want := expect(q); p.OutPort != want {
					return fmt.Errorf("slotpool: packet %v found on queue %d (want OutPort %d)", p, q, want)
				}
			}
			last := s
			for i := 0; i < p.Slots; i++ {
				if last == nilSlot {
					return fmt.Errorf("slotpool: packet %v truncated in queue %d", p, q)
				}
				if i > 0 && sp.slots[last].owner != nil {
					return fmt.Errorf("slotpool: continuation slot %d of %v owns a packet", last, p)
				}
				if seen[last] {
					return fmt.Errorf("slotpool: slot %d double-booked in queue %d", last, q)
				}
				seen[last] = true
				slots++
				if i < p.Slots-1 {
					last = sp.slots[last].next
				}
			}
			if sp.slots[last].next == nilSlot && qr.tail != last {
				return fmt.Errorf("slotpool: queue %d tail register %d != actual tail %d", q, qr.tail, last)
			}
			s = sp.slots[last].next
			pkts++
			if pkts > sp.capacity {
				return fmt.Errorf("slotpool: queue %d is cyclic", q)
			}
		}
		if pkts != int(qr.pkts) {
			return fmt.Errorf("slotpool: queue %d has %d packets, counter says %d", q, pkts, qr.pkts)
		}
		if slots != int(qr.slots) {
			return fmt.Errorf("slotpool: queue %d holds %d slots, counter says %d", q, slots, qr.slots)
		}
		if pkts == 0 && (qr.head != nilSlot || qr.tail != nilSlot) {
			return fmt.Errorf("slotpool: empty queue %d has live head/tail registers", q)
		}
		if set := sp.occ[q>>6]>>uint(q&63)&1 != 0; set != (pkts > 0) {
			return fmt.Errorf("slotpool: occupancy bit of queue %d is %v, queue holds %d packets", q, set, pkts)
		}
		total += slots
	}
	quarSlots := 0
	if sp.quar != nil {
		for s := 0; s < sp.capacity; s++ {
			if sp.quar[s] != slotQuarantined {
				continue
			}
			if seen[s] {
				return fmt.Errorf("slotpool: quarantined slot %d is on a list", s)
			}
			seen[s] = true
			quarSlots++
		}
	}
	if last := len(sp.occ) - 1; sp.occ[last]>>uint(sp.numQueues-64*last) != 0 {
		return fmt.Errorf("slotpool: occupancy word has bits past queue %d", sp.numQueues-1)
	}
	if quarSlots != sp.quarCount {
		return fmt.Errorf("slotpool: %d slots quarantined, counter says %d", quarSlots, sp.quarCount)
	}
	total += quarSlots
	if total != sp.capacity {
		return fmt.Errorf("slotpool: %d slots accounted for, capacity %d", total, sp.capacity)
	}
	sum := 0
	for _, qr := range sp.queues {
		sum += int(qr.pkts)
	}
	if sum != sp.pkts {
		return fmt.Errorf("slotpool: queues hold %d packets, total counter says %d", sum, sp.pkts)
	}
	return nil
}

// Dump renders the slot pool's linked-list structure for debugging: each
// queue as its chain of (slot, packet) hops and the free list as slot
// indices. The output is the software view of the chip's pointer
// registers.
func (sp *SlotPool) Dump() string {
	var sb strings.Builder
	for q := 0; q < sp.numQueues; q++ {
		fmt.Fprintf(&sb, "q%d:", q)
		s := sp.queues[q].head
		for n := int32(0); n < sp.queues[q].pkts; n++ {
			p := sp.slots[s].owner
			fmt.Fprintf(&sb, " [pkt%d:", p.ID)
			for i := 0; i < p.Slots; i++ {
				fmt.Fprintf(&sb, " %d", s)
				s = sp.slots[s].next
			}
			sb.WriteString("]")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("free:")
	for s := sp.freeHead; s != nilSlot; s = sp.slots[s].next {
		fmt.Fprintf(&sb, " %d", s)
	}
	sb.WriteString("\n")
	if sp.quarCount > 0 {
		sb.WriteString("quarantined:")
		for s := 0; s < sp.capacity; s++ {
			if sp.quar[s] == slotQuarantined {
				fmt.Fprintf(&sb, " %d", s)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

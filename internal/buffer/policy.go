package buffer

import "damq/internal/packet"

// AdmissionPolicy is the decision half of the admission/storage split:
// given a routed packet, the storage group it would enter, and the queue
// the packet would join, Admit says whether the packet may enter. It
// reads the group's registers directly and changes nothing. Policies
// are pure — no mutation, no allocation, no randomness — so the same
// (packet, state) always decides the same way regardless of worker
// count; that is what keeps the sharded simulator byte-identical.
type AdmissionPolicy interface {
	// Name is the policy's short name for error messages and reports.
	Name() string
	// Admit reports whether p may join queue q of g. The composed buffer
	// has already rejected out-of-range ports (where the kind demands it)
	// and packets larger than the pool's free space.
	Admit(p *packet.Packet, g *group, q int) bool
}

// completeSharing is 1988's FIFO/DAMQ/DAFC admission: any packet that
// fits in the pool's free space enters. Maximal storage utilization, no
// isolation — one hot output can monopolize every slot.
type completeSharing struct{}

func (completeSharing) Name() string { return "complete-sharing" }

// damqvet:hotpath
func (completeSharing) Admit(p *packet.Packet, g *group, q int) bool {
	return p.Slots <= g.pool.freeCount
}

// completePartition is 1988's SAMQ/SAFC admission: each queue owns a
// fixed share of the slots that no other traffic can use, so a burst
// toward one output can be rejected while slots reserved for other
// outputs sit empty — the storage inefficiency the DAMQ removes.
type completePartition struct {
	perQueue int // slots statically owned by each queue
}

func (completePartition) Name() string { return "complete-partitioning" }

// damqvet:hotpath
func (cp completePartition) Admit(p *packet.Packet, g *group, q int) bool {
	return g.queueSlots(q)+p.Slots <= cp.perQueue
}

// dynThreshold is the classic Dynamic Threshold policy (Choudhury &
// Hahne): a queue may grow to at most alpha times the pool's current
// free space. The threshold is self-regulating — as the pool fills,
// free space shrinks and with it every queue's allowance, deliberately
// holding a fraction 1/(1+alpha·n_active) of the pool in reserve for
// queues that were idle when a burst began.
type dynThreshold struct {
	alpha float64
}

func (dynThreshold) Name() string { return "dynamic-threshold" }

// damqvet:hotpath
func (dt dynThreshold) Admit(p *packet.Packet, g *group, q int) bool {
	return float64(g.queueSlots(q)+p.Slots) <= dt.alpha*float64(g.pool.freeCount)
}

// fbSharing is FB-style flexible sharing across priority classes
// (Apostolaki et al.): class c gets a reserved quota no other class can
// touch, plus a dynamic-threshold share of free space that halves with
// each step down in priority (alpha_c = alpha / 2^c). High classes
// therefore burst into most of the pool while low classes are capped
// early, and the reserved quota keeps every class live under overload.
type fbSharing struct {
	classes int
	alpha   float64
	reserve int // slots guaranteed per class
}

func (fbSharing) Name() string { return "fb-flexible" }

// damqvet:hotpath
func (fb fbSharing) Admit(p *packet.Packet, g *group, q int) bool {
	c := classOf(p, fb.classes)
	after := p.Slots
	if g.classSlots != nil {
		after += g.classSlots[c]
	}
	if after <= fb.reserve {
		return true
	}
	alphaC := fb.alpha / float64(int64(1)<<uint(c))
	return float64(after) <= float64(fb.reserve)+alphaC*float64(g.pool.freeCount)
}

// bshare is BShare-style queueing-delay-driven sharing (Agarwal et
// al.): admission starts from a dynamic threshold, but a queue whose
// head packet has waited past the delay target is draining too slowly
// to justify its share — its allowance shrinks in proportion to the
// overshoot (never below a one-packet reserve), shifting buffer toward
// queues that are actually moving.
type bshare struct {
	alpha   float64
	target  int64 // head-of-line delay target, in pool ticks
	reserve int   // slots a queue may always hold
}

func (bshare) Name() string { return "bshare-delay" }

// damqvet:hotpath
func (bs bshare) Admit(p *packet.Packet, g *group, q int) bool {
	limit := bs.alpha * float64(g.pool.freeCount)
	if age := g.pool.HeadAge(q); age > bs.target {
		limit *= float64(bs.target) / float64(age)
		if limit < float64(bs.reserve) {
			limit = float64(bs.reserve)
		}
	}
	return float64(g.queueSlots(q)+p.Slots) <= limit
}

// classOf derives a packet's priority class from its ID with a
// splitmix64-style finalizer. A plain ID%classes would correlate class
// with the sharded simulator's per-shard ID striding (shard k mints IDs
// k, k+stride, 2k+stride, ...), silently segregating classes by shard;
// mixing first makes class assignment uniform and — because it depends
// only on the packet's identity — identical at any worker count.
// damqvet:hotpath
func classOf(p *packet.Packet, classes int) int {
	x := p.ID
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(classes))
}

// Class is the priority class the FB policy files p under, given the
// configured class count. Exported so traffic generators, metrics, and
// tests agree with admission on the class mapping.
func Class(p *packet.Packet, classes int) int {
	if classes <= 1 {
		return 0
	}
	return classOf(p, classes)
}

package buffer

import (
	"fmt"

	"damq/internal/cfgerr"
	"damq/internal/packet"
)

// group is the sharing unit of the admission/storage split: one slot
// pool, the admission policy that guards it, and the cross-queue
// accounting the policy reads. A per-port buffer owns a group privately;
// the switch-wide shared-pool mode hands one group to every input port's
// view, which is all it takes for admission at one port to see — and
// compete for — the whole switch's storage.
type group struct {
	pool    SlotPool // by value: admission reads it without another hop
	policy  AdmissionPolicy
	classes int
	// classSlots tracks pool-wide slots per priority class; nil unless the
	// policy is class-aware (FB), so everyone else skips the bookkeeping.
	classSlots []int
	// outputs is the per-view output count that maps a pool queue to the
	// OutPort its packets must carry (queue mod outputs); 0 for a FIFO's
	// single queue, which skips the routing check.
	outputs int
}

// newGroup builds the storage group behind inputs ports of cfg: a fresh
// pool of inputs*cfg.Capacity slots with one queue for a FIFO and one
// per (input, output) pair otherwise, the kind's admission policy, and
// the enqueue-stamp clock when the policy reads packet ages.
func newGroup(cfg Config, inputs int) *group {
	poolCap := inputs * cfg.Capacity
	pol, classes := buildPolicy(cfg, poolCap)
	g := &group{policy: pol, classes: classes}
	numQueues := 1
	if cfg.Kind != FIFO {
		g.outputs = cfg.NumOutputs
		numQueues = inputs * cfg.NumOutputs
	}
	g.pool.init(numQueues, poolCap)
	if KindUsesClock(cfg.Kind) {
		g.pool.EnableClock()
	}
	if classes > 1 {
		g.classSlots = make([]int, classes)
	}
	return g
}

// checkInvariants audits the group's pool, including the routing check
// that every packet sits on the queue its OutPort maps to.
func (g *group) checkInvariants() error {
	var expect func(q int) int
	if n := g.outputs; n > 0 {
		expect = func(q int) int { return q % n }
	}
	return g.pool.CheckInvariants(expect)
}

// queueSlots is the slots held by queue q, the register most policies
// threshold on.
// damqvet:hotpath
func (g *group) queueSlots(q int) int { return int(g.pool.queues[q].slots) }

// Buffer is one input port's view of a storage group: the long-clock
// behavioural contract shared by every organization. Packets stored in it
// have already been routed (Packet.OutPort names the local output port the
// packet wants). Every kind is a Buffer; kinds differ only in admission
// policy, queue layout (single/per-output), read bandwidth, and which
// group they share — all derived from the Kind by newView.
//
// Head/Pop semantics encode each design's read restrictions: Head(out) is
// the packet the buffer could deliver to output out this cycle, or nil.
// For multi-queue buffers that is the head of the per-output queue; for a
// FIFO it is the single head packet, and only for that packet's own
// destination — head-of-line blocking falls out of this definition.
// MaxReadsPerCycle is 1 for single-read-port designs (FIFO, SAMQ, DAMQ,
// and the modern policies) and NumOutputs for SAFC/DAFC; the crossbar
// arbiter enforces it.
type Buffer struct {
	g *group
	// m holds the optional accept/reject/pop counters (SetMetrics); nil
	// keeps every probe behind a never-taken branch.
	m          *Metrics
	kind       Kind
	numOutputs int
	nominalCap int // Capacity() this view reports: its own port's share
	qBase      int // first pool queue belonging to this view
	slotBase   int // first pool slot of this view's quarantine window
	maxReads   int
	perQueue   int // static per-queue budget; >0 only for partitioned kinds
	single     bool
	portCheck  bool // CanAccept rejects out-of-range ports
	pkts       int  // packets in this view's queues, for O(1) Len
}

// newView maps input port in onto group g, deriving every per-view
// parameter from cfg.Kind: FIFO is one queue, the other kinds one queue
// per output; SAFC and DAFC read every queue each cycle; SAMQ and SAFC
// carry a static per-queue budget; the partitioned and modern kinds
// reject out-of-range ports at CanAccept.
func newView(cfg Config, g *group, in int) *Buffer {
	k, n := cfg.Kind, cfg.NumOutputs
	b := &Buffer{
		g:          g,
		kind:       k,
		numOutputs: n,
		nominalCap: cfg.Capacity,
		qBase:      in * n,
		slotBase:   in * cfg.Capacity,
		maxReads:   1,
		single:     k == FIFO,
		portCheck:  k == SAMQ || k == SAFC || KindModern(k),
	}
	if k == SAMQ || k == SAFC {
		b.perQueue = cfg.Capacity / n
	}
	if k == SAFC || k == DAFC {
		b.maxReads = n
	}
	return b
}

// Kind reports the buffer organization.
func (b *Buffer) Kind() Kind { return b.kind }

// NumOutputs is the number of output ports packets may be routed to.
func (b *Buffer) NumOutputs() int { return b.numOutputs }

// Capacity is this port's nominal storage in slots. Under a shared pool
// it is the port's share of the group, not the group total.
func (b *Buffer) Capacity() int { return b.nominalCap }

// MaxReadsPerCycle is how many packets may leave per long cycle.
func (b *Buffer) MaxReadsPerCycle() int { return b.maxReads }

// Free reports the slots available in the backing pool: for every kind
// the total free count (use CanAccept for admission decisions). For a
// shared group this is the switch-wide free count, which may exceed this
// view's nominal Capacity — admission is the policy's call, not a
// per-view cap.
// damqvet:hotpath
func (b *Buffer) Free() int { return b.g.pool.freeCount }

// Len is the number of packets currently buffered at this port, in O(1):
// network simulators read it on hot paths.
// damqvet:hotpath
func (b *Buffer) Len() int { return b.pkts }

// Empty reports whether the buffer holds no packets, in O(1). It is the
// emptiness hook the active-set network simulator polls.
// damqvet:hotpath
func (b *Buffer) Empty() bool { return b.pkts == 0 }

// queueOf maps a local output port to its pool queue.
// damqvet:hotpath
func (b *Buffer) queueOf(out int) int {
	if b.single {
		return b.qBase
	}
	return b.qBase + out
}

// CanAccept reports whether p (with OutPort set) fits right now — the
// admission policy's decision.
// damqvet:hotpath
func (b *Buffer) CanAccept(p *packet.Packet) bool { return b.CanAcceptTo(p.OutPort, p) }

// CanAcceptTo is CanAccept for p routed to out, whatever p.OutPort says:
// an upstream switch asks it about a packet it has not yet routed for
// this stage, without copying the packet. The pool fit check runs first
// so policies may assume p.Slots <= FreeSlots.
// damqvet:hotpath
func (b *Buffer) CanAcceptTo(out int, p *packet.Packet) bool {
	if b.portCheck && (out < 0 || out >= b.numOutputs) {
		return false
	}
	if p.Slots > b.g.pool.freeCount {
		return false
	}
	return b.g.policy.Admit(p, b.g, b.queueOf(out))
}

// TryAccept stores p if it is well formed (OutPort in range, at least
// one slot) and the admission policy takes it, evaluating the policy
// once; it reports whether p was stored. With metrics attached it counts
// the outcome.
// damqvet:hotpath
func (b *Buffer) TryAccept(p *packet.Packet) bool {
	out := p.OutPort
	if out < 0 || out >= b.numOutputs || p.Slots <= 0 || p.Slots > b.g.pool.freeCount {
		return b.refuse()
	}
	q := b.queueOf(out)
	if !b.g.policy.Admit(p, b.g, q) {
		return b.refuse()
	}
	b.g.pool.Push(q, p)
	if b.g.classSlots != nil {
		b.g.classSlots[classOf(p, b.g.classes)] += p.Slots
	}
	b.pkts++
	if b.m != nil {
		if b.m.Accepted != nil {
			b.m.Accepted.Inc()
		}
	}
	return true
}

// refuse counts a refused TryAccept and reports false.
// damqvet:hotpath
func (b *Buffer) refuse() bool {
	if b.m != nil {
		if b.m.Rejected != nil {
			b.m.Rejected.Inc()
		}
	}
	return false
}

// Accept stores p. It is TryAccept with the refusal explained: the error
// wraps ErrBadPort when p.OutPort is out of range and ErrFull when p
// does not fit.
func (b *Buffer) Accept(p *packet.Packet) error {
	if b.TryAccept(p) {
		return nil
	}
	prefix := kindPrefix(b.kind)
	switch {
	case p.OutPort < 0 || p.OutPort >= b.numOutputs:
		return fmt.Errorf("%s: %w: %d", prefix, ErrBadPort, p.OutPort)
	case p.Slots <= 0:
		return fmt.Errorf("%s: packet %v has non-positive slot count", prefix, p)
	case b.perQueue > 0:
		return fmt.Errorf("%s: %w (queue %d free %d, need %d)",
			prefix, ErrFull, p.OutPort, b.QueueFree(p.OutPort), p.Slots)
	}
	return fmt.Errorf("%s: %w (free %d, need %d)", prefix, ErrFull, b.g.pool.freeCount, p.Slots)
}

// QueueLen is the length, in packets, of the queue that would serve
// output out. For a FIFO it is the whole queue length if the head packet
// wants out, else 0.
// damqvet:hotpath
func (b *Buffer) QueueLen(out int) int {
	if b.single {
		head := b.g.pool.Head(b.qBase)
		if head == nil || head.OutPort != out {
			return 0
		}
		return b.g.pool.QueueLen(b.qBase)
	}
	return b.g.pool.QueueLen(b.qBase + out)
}

// HeadMask has bit out set iff Head(out) is not nil, in O(1): this
// input's row of the crossbar arbiter's request matrix. It is a shift
// and a mask of the pool's occupancy word for the per-output kinds, and
// the bit of the head packet's output for a FIFO.
// damqvet:hotpath
func (b *Buffer) HeadMask() uint64 {
	if b.single {
		head := b.g.pool.Head(b.qBase)
		if head == nil {
			return 0
		}
		return 1 << uint(head.OutPort)
	}
	return b.g.pool.occupied(b.qBase, b.numOutputs)
}

// Head returns the packet deliverable to out this cycle, or nil.
// damqvet:hotpath
func (b *Buffer) Head(out int) *packet.Packet {
	if b.single {
		head := b.g.pool.Head(b.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
		return head
	}
	return b.g.pool.Head(b.qBase + out)
}

// Pop removes and returns Head(out); nil if there is none. With metrics
// attached it counts the drain.
// damqvet:hotpath
func (b *Buffer) Pop(out int) *packet.Packet {
	q := b.qBase
	if b.single {
		head := b.g.pool.Head(b.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
	} else {
		q += out
	}
	p := b.g.pool.Pop(q)
	if p == nil {
		return nil
	}
	if b.g.classSlots != nil {
		b.g.classSlots[classOf(p, b.g.classes)] -= p.Slots
	}
	b.pkts--
	if b.m != nil {
		if b.m.Popped != nil {
			b.m.Popped.Inc()
		}
	}
	return p
}

// Reset discards the contents of the whole backing group, not just this
// view's queues — per-view partial reset of shared storage cannot be
// expressed in slot-pool hardware. Callers resetting a shared-pool
// switch reset every view (sw.Switch.Reset does), which also squares the
// per-view packet counters.
func (b *Buffer) Reset() {
	b.g.pool.Reset()
	for i := range b.g.classSlots {
		b.g.classSlots[i] = 0
	}
	b.pkts = 0
}

// QueueFree reports the free slots in the static budget of the queue
// serving out. It is the quantity the paper's per-queue flow control
// must communicate upstream (four times the flow-control information of
// a FIFO, as Section 2 notes). Meaningful only for partitioned kinds.
func (b *Buffer) QueueFree(out int) int {
	return b.perQueue - b.g.queueSlots(b.queueOf(out))
}

// Tick advances the group's clock by one cycle; only kinds whose policy
// reads packet ages (KindUsesClock) need it. Exactly one view per group
// has qBase 0, so ticking every view of a shared pool — which is what a
// per-buffer loop naturally does — advances the clock once.
// damqvet:hotpath
func (b *Buffer) Tick() {
	if b.qBase == 0 {
		b.g.pool.Tick()
	}
}

// NewDAMQ constructs a DAMQ buffer with the given queue count and total
// slot capacity. Like MustNew it panics, with an error wrapping
// cfgerr.ErrBadPorts or cfgerr.ErrBadCapacity, on an invalid geometry.
func NewDAMQ(numOutputs, capacity int) *Buffer {
	return MustNew(Config{Kind: DAMQ, NumOutputs: numOutputs, Capacity: capacity})
}

// QuarantineSlot takes this view's slot s out of service; see
// SlotPool.QuarantineSlot. Slot numbering is view-local: under a shared
// pool, each input port's view addresses its own nominal-capacity window
// of the pool, so fault schedules computed per buffer keep working when
// storage spans ports. Fault injection targets only the kinds whose slots
// are dynamically pooled (KindSharesPool); it panics on an out-of-range
// slot.
func (b *Buffer) QuarantineSlot(s int) bool {
	if s < 0 || s >= b.nominalCap {
		panic(fmt.Sprintf("%s: QuarantineSlot(%d) out of range [0,%d)", kindPrefix(b.kind), s, b.nominalCap))
	}
	return b.g.pool.QuarantineSlot(b.slotBase + s)
}

// Quarantined reports how many slots of this view's window are fully out
// of service (pending slots still serving a packet are not counted until
// released).
func (b *Buffer) Quarantined() int {
	return b.g.pool.QuarantinedIn(b.slotBase, b.slotBase+b.nominalCap)
}

// CheckInvariants verifies the structural health of the backing pool,
// including, for the per-output kinds, that every packet sits on the
// queue its OutPort routes to.
func (b *Buffer) CheckInvariants() error {
	return b.g.checkInvariants()
}

// Dump renders the backing pool's linked-list structure for debugging.
func (b *Buffer) Dump() string { return b.g.pool.Dump() }

// QueueSlots reports the slots currently held by the queue for out, used
// by tests and the occupancy ablation.
func (b *Buffer) QueueSlots(out int) int { return b.g.queueSlots(b.queueOf(out)) }

// Pool exposes the backing slot pool to the checkpoint codec, the
// observer, and tests. All views of a shared group return the same pool.
func (b *Buffer) Pool() *SlotPool { return &b.g.pool }

// buildPolicy resolves cfg's kind and sharing knobs into the admission
// policy for a pool of poolCap total slots, plus the class count.
// poolCap equals cfg.Capacity for a per-port buffer and
// inputs*cfg.Capacity for a shared group — FB's per-class reserve
// scales with the real pool.
func buildPolicy(cfg Config, poolCap int) (pol AdmissionPolicy, classes int) {
	switch cfg.Kind {
	case SAMQ, SAFC:
		return completePartition{perQueue: cfg.Capacity / cfg.NumOutputs}, 0
	case DT:
		return dynThreshold{alpha: cfg.Sharing.alpha()}, 0
	case FB:
		classes = cfg.Sharing.classes()
		// Half the pool is hard-reserved in equal per-class quotas, the
		// other half is shared under the per-class decaying thresholds.
		return fbSharing{
			classes: classes,
			alpha:   cfg.Sharing.alpha(),
			reserve: poolCap / classes / 2,
		}, classes
	case BSHARE:
		return bshare{
			alpha:   cfg.Sharing.alpha(),
			target:  cfg.Sharing.delayTarget(),
			reserve: 1,
		}, 0
	default: // FIFO, DAMQ, DAFC
		return completeSharing{}, 0
	}
}

// kindPrefix is the error-message prefix of k's buffers: the seed
// implementations' strings, which TestLegacyKindsBitIdentical pins.
func kindPrefix(k Kind) string {
	switch k {
	case FIFO:
		return "fifo"
	case DAMQ, DAFC:
		return "damq"
	case DT:
		return "dt"
	case FB:
		return "fb"
	case BSHARE:
		return "bshare"
	default:
		return k.String()
	}
}

// NewSharedGroup constructs one storage group spanning inputs ports and
// returns the per-port views onto it: pool capacity is
// inputs*cfg.Capacity, pool queues are the inputs*NumOutputs (input,
// output) pairs, and the admission policy decides over switch-wide
// occupancy. Only pooled kinds may share (KindSharesPool); the static
// 1988 designs pre-partition storage per port by definition, so asking
// for them shared is a config error wrapping cfgerr.ErrBadSharing.
//
// Every view's quarantine window is its own port's cfg.Capacity slots,
// so per-buffer fault schedules hold when storage spans ports.
func NewSharedGroup(cfg Config, inputs int) ([]*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inputs <= 0 {
		return nil, fmt.Errorf("buffer: shared group needs positive inputs, got %d: %w",
			inputs, cfgerr.ErrBadPorts)
	}
	if !KindSharesPool(cfg.Kind) {
		return nil, fmt.Errorf("buffer: %v (policy %s) cannot share one pool across ports: %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfgerr.ErrBadSharing)
	}
	g := newGroup(cfg, inputs)
	views := make([]*Buffer, inputs)
	for i := range views {
		views[i] = newView(cfg, g, i)
	}
	return views, nil
}

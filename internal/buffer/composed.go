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
	// expectOut maps a pool queue index to the OutPort its packets must
	// carry; CheckInvariants uses it, nil skips the routing check.
	expectOut func(q int) int
}

// newGroup builds a group over a fresh pool of numQueues queues and
// capacity slots, with the enqueue-stamp clock when clocked.
func newGroup(numQueues, capacity int, clocked bool, pol AdmissionPolicy, classes int, expectOut func(q int) int) *group {
	g := &group{policy: pol, classes: classes, expectOut: expectOut}
	g.pool.init(numQueues, capacity)
	if clocked {
		g.pool.EnableClock()
	}
	if classes > 1 {
		g.classSlots = make([]int, classes)
	}
	return g
}

// queueSlots is the slots held by queue q, the register most policies
// threshold on.
// damqvet:hotpath
func (g *group) queueSlots(q int) int { return int(g.pool.queues[q].slots) }

// composed is a Buffer assembled from a storage group and the view
// parameters that map this input port onto it. Every kind in the package
// is a composed buffer; they differ only in policy, queue layout
// (single/per-output), read bandwidth, and which group they share.
type composed struct {
	g          *group
	kind       Kind
	numOutputs int
	nominalCap int // Capacity() this view reports: its own port's share
	qBase      int // first pool queue belonging to this view
	slotBase   int // first pool slot of this view's quarantine window
	maxReads   int
	perQueue   int // static per-queue budget; >0 only for partitioned kinds
	single     bool
	portCheck  bool // CanAccept rejects out-of-range ports (static kinds do)
	prefix     string
	pkts       int // packets in this view's queues, for O(1) Len
}

func (c *composed) Kind() Kind            { return c.kind }
func (c *composed) NumOutputs() int       { return c.numOutputs }
func (c *composed) Capacity() int         { return c.nominalCap }
func (c *composed) MaxReadsPerCycle() int { return c.maxReads }

// Free reports the slots available in the backing pool. For a shared
// group this is the switch-wide free count, which may exceed this view's
// nominal Capacity — admission is the policy's call, not a per-view cap.
// damqvet:hotpath
func (c *composed) Free() int { return c.g.pool.freeCount }

// damqvet:hotpath
func (c *composed) Len() int { return c.pkts }

// damqvet:hotpath
func (c *composed) Empty() bool { return c.pkts == 0 }

// queueOf maps a local output port to its pool queue.
// damqvet:hotpath
func (c *composed) queueOf(out int) int {
	if c.single {
		return c.qBase
	}
	return c.qBase + out
}

// damqvet:hotpath
func (c *composed) CanAccept(p *packet.Packet) bool { return c.CanAcceptTo(p.OutPort, p) }

// CanAcceptTo asks the admission policy whether p, routed to out, fits
// right now. The pool fit check runs first so policies may assume
// p.Slots <= FreeSlots.
// damqvet:hotpath
func (c *composed) CanAcceptTo(out int, p *packet.Packet) bool {
	if c.portCheck && (out < 0 || out >= c.numOutputs) {
		return false
	}
	if p.Slots > c.g.pool.freeCount {
		return false
	}
	return c.g.policy.Admit(p, c.g, c.queueOf(out))
}

// TryAccept stores p if it is well formed (OutPort in range, at least
// one slot) and the admission policy takes it, evaluating the policy
// once; it reports whether p was stored.
// damqvet:hotpath
func (c *composed) TryAccept(p *packet.Packet) bool {
	out := p.OutPort
	if out < 0 || out >= c.numOutputs || p.Slots <= 0 || p.Slots > c.g.pool.freeCount {
		return false
	}
	q := c.queueOf(out)
	if !c.g.policy.Admit(p, c.g, q) {
		return false
	}
	c.g.pool.Push(q, p)
	if c.g.classSlots != nil {
		c.g.classSlots[classOf(p, c.g.classes)] += p.Slots
	}
	c.pkts++
	return true
}

// Accept is TryAccept with the refusal explained.
func (c *composed) Accept(p *packet.Packet) error {
	if c.TryAccept(p) {
		return nil
	}
	switch {
	case p.OutPort < 0 || p.OutPort >= c.numOutputs:
		return fmt.Errorf("%s: %w: %d", c.prefix, ErrBadPort, p.OutPort)
	case p.Slots <= 0:
		return fmt.Errorf("%s: packet %v has non-positive slot count", c.prefix, p)
	case c.perQueue > 0:
		return fmt.Errorf("%s: %w (queue %d free %d, need %d)",
			c.prefix, ErrFull, p.OutPort, c.QueueFree(p.OutPort), p.Slots)
	}
	return fmt.Errorf("%s: %w (free %d, need %d)", c.prefix, ErrFull, c.g.pool.freeCount, p.Slots)
}

// damqvet:hotpath
func (c *composed) QueueLen(out int) int {
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return 0
		}
		return c.g.pool.QueueLen(c.qBase)
	}
	return c.g.pool.QueueLen(c.qBase + out)
}

// HeadMask is a shift and a mask of the pool's occupancy word for the
// per-output kinds, and the bit of the head packet's output for a FIFO.
// damqvet:hotpath
func (c *composed) HeadMask() uint64 {
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil {
			return 0
		}
		return 1 << uint(head.OutPort)
	}
	return c.g.pool.occupied(c.qBase, c.numOutputs)
}

// damqvet:hotpath
func (c *composed) Head(out int) *packet.Packet {
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
		return head
	}
	return c.g.pool.Head(c.qBase + out)
}

// damqvet:hotpath
func (c *composed) Pop(out int) *packet.Packet {
	q := c.qBase
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
	} else {
		q += out
	}
	p := c.g.pool.Pop(q)
	if p == nil {
		return nil
	}
	if c.g.classSlots != nil {
		c.g.classSlots[classOf(p, c.g.classes)] -= p.Slots
	}
	c.pkts--
	return p
}

// Reset discards the contents of the whole backing group, not just this
// view's queues — per-view partial reset of shared storage cannot be
// expressed in slot-pool hardware. Callers resetting a shared-pool
// switch reset every view (sw.Switch.Reset does), which also squares the
// per-view packet counters.
func (c *composed) Reset() {
	c.g.pool.Reset()
	for i := range c.g.classSlots {
		c.g.classSlots[i] = 0
	}
	c.pkts = 0
}

// QueueFree reports the free slots in the static budget of the queue
// serving out. It is the quantity the paper's per-queue flow control
// must communicate upstream (four times the flow-control information of
// a FIFO, as Section 2 notes). Meaningful only for partitioned kinds.
func (c *composed) QueueFree(out int) int {
	return c.perQueue - c.g.queueSlots(c.qBase+out)
}

// Tick advances the group's clock by one cycle. Exactly one view per
// group has qBase 0, so ticking every view of a shared pool — which is
// what a per-buffer loop naturally does — advances the clock once.
// damqvet:hotpath
func (c *composed) Tick() {
	if c.qBase == 0 {
		c.g.pool.Tick()
	}
}

var _ Buffer = (*composed)(nil)

// PoolBuffer is a composed buffer whose storage faults can be injected:
// it exposes the slot-pool quarantine machinery and structural
// self-checks. All dynamically pooled kinds (DAMQ, DAFC, DT, FB, BShare)
// construct as PoolBuffers; the 1988 non-pooled kinds (FIFO, SAMQ, SAFC)
// stay plain composed buffers so the fault injector's slot schedules —
// which target only quarantine-capable buffers — are unchanged from the
// seed implementations.
type PoolBuffer struct {
	composed
}

// DAMQBuffer is the paper's dynamically allocated multi-queue buffer —
// complete sharing composed over the slot pool. The name survives the
// admission/storage split as an alias so the facade, tests, and the
// comcobb chip model keep their vocabulary.
type DAMQBuffer = PoolBuffer

// NewDAMQ constructs a DAMQ buffer with the given queue count and total
// slot capacity.
func NewDAMQ(numOutputs, capacity int) *DAMQBuffer {
	return newPoolBuffer(DAMQ, numOutputs, capacity, 1, completeSharing{}, 0, false, false, "damq")
}

func newPoolBuffer(kind Kind, numOutputs, capacity, maxReads int, pol AdmissionPolicy, classes int, clocked, portCheck bool, prefix string) *PoolBuffer {
	g := newGroup(numOutputs, capacity, clocked, pol, classes, func(q int) int { return q })
	return &PoolBuffer{composed{
		g:          g,
		kind:       kind,
		numOutputs: numOutputs,
		nominalCap: capacity,
		maxReads:   maxReads,
		portCheck:  portCheck,
		prefix:     prefix,
	}}
}

// QuarantineSlot takes this view's slot s out of service; see
// SlotPool.QuarantineSlot. Slot numbering is view-local: under a shared
// pool, each input port's view addresses its own nominal-capacity window
// of the pool, so fault schedules computed per buffer keep working when
// storage spans ports.
func (b *PoolBuffer) QuarantineSlot(s int) bool {
	if s < 0 || s >= b.nominalCap {
		panic(fmt.Sprintf("%s: QuarantineSlot(%d) out of range [0,%d)", b.prefix, s, b.nominalCap))
	}
	return b.g.pool.QuarantineSlot(b.slotBase + s)
}

// Quarantined reports how many slots of this view's window are fully out
// of service (pending slots still serving a packet are not counted until
// released).
func (b *PoolBuffer) Quarantined() int {
	return b.g.pool.QuarantinedIn(b.slotBase, b.slotBase+b.nominalCap)
}

// CheckInvariants verifies the structural health of the backing pool,
// including that every packet sits on the queue its OutPort routes to.
func (b *PoolBuffer) CheckInvariants() error {
	return b.g.pool.CheckInvariants(b.g.expectOut)
}

// Dump renders the backing pool's linked-list structure for debugging.
func (b *PoolBuffer) Dump() string { return b.g.pool.Dump() }

// QueueSlots reports the slots currently held by the queue for out, used
// by tests and the occupancy ablation.
func (b *PoolBuffer) QueueSlots(out int) int { return b.g.queueSlots(b.qBase + out) }

// Pool exposes the backing slot pool for tests and structural tooling.
func (b *PoolBuffer) Pool() *SlotPool { return &b.g.pool }

var _ Buffer = (*PoolBuffer)(nil)

// newFIFO composes the control design: one queue over the whole pool,
// complete sharing, one read port. Only the head packet is visible to
// the crossbar — head-of-line blocking falls out of the single-queue
// layout, not the policy.
func newFIFO(numOutputs, capacity int) *composed {
	g := newGroup(1, capacity, false, completeSharing{}, 0, nil)
	return &composed{
		g:          g,
		kind:       FIFO,
		numOutputs: numOutputs,
		nominalCap: capacity,
		maxReads:   1,
		single:     true,
		prefix:     "fifo",
	}
}

// newStatic composes both statically allocated designs, SAMQ and SAFC:
// per-output queues with a complete-partitioning policy. The two differ
// only in read bandwidth: SAMQ keeps all queues in one single-read-port
// RAM, SAFC gives every queue its own RAM and crossbar lane. Admission
// is identical.
func newStatic(kind Kind, numOutputs, capacity int) *composed {
	per := capacity / numOutputs
	reads := 1
	if kind == SAFC {
		reads = numOutputs
	}
	g := newGroup(numOutputs, capacity, false, completePartition{perQueue: per},
		0, func(q int) int { return q })
	return &composed{
		g:          g,
		kind:       kind,
		numOutputs: numOutputs,
		nominalCap: capacity,
		maxReads:   reads,
		perQueue:   per,
		portCheck:  true,
		prefix:     kind.String(),
	}
}

// buildPolicy resolves cfg's kind and sharing knobs into the admission
// policy for a pool of poolCap total slots, plus the class count and
// whether the pool needs the enqueue-stamp clock. poolCap equals
// cfg.Capacity for a per-port buffer and inputs*cfg.Capacity for a
// shared group — FB's per-class reserve scales with the real pool.
func buildPolicy(cfg Config, poolCap int) (pol AdmissionPolicy, classes int, clocked bool) {
	switch cfg.Kind {
	case SAMQ, SAFC:
		return completePartition{perQueue: cfg.Capacity / cfg.NumOutputs}, 0, false
	case DT:
		return dynThreshold{alpha: cfg.Sharing.alpha()}, 0, false
	case FB:
		classes = cfg.Sharing.classes()
		// Half the pool is hard-reserved in equal per-class quotas, the
		// other half is shared under the per-class decaying thresholds.
		return fbSharing{
			classes: classes,
			alpha:   cfg.Sharing.alpha(),
			reserve: poolCap / classes / 2,
		}, classes, false
	case BSHARE:
		return bshare{
			alpha:   cfg.Sharing.alpha(),
			target:  cfg.Sharing.delayTarget(),
			reserve: 1,
		}, 0, true
	default: // FIFO, DAMQ, DAFC
		return completeSharing{}, 0, false
	}
}

func kindReads(k Kind, numOutputs int) int {
	if k == SAFC || k == DAFC {
		return numOutputs
	}
	return 1
}

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
// returns the per-port Buffer views onto it: pool capacity is
// inputs*cfg.Capacity, pool queues are the inputs*NumOutputs (input,
// output) pairs, and the admission policy decides over switch-wide
// occupancy. Only pooled kinds may share (KindSharesPool); the static
// 1988 designs pre-partition storage per port by definition, so asking
// for them shared is a config error wrapping cfgerr.ErrBadSharing.
//
// Every returned view is a *PoolBuffer whose quarantine window is its
// own port's cfg.Capacity slots, so per-buffer fault schedules hold when
// storage spans ports.
func NewSharedGroup(cfg Config, inputs int) ([]Buffer, error) {
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
	poolCap := inputs * cfg.Capacity
	pol, classes, clocked := buildPolicy(cfg, poolCap)
	n := cfg.NumOutputs
	g := newGroup(inputs*n, poolCap, clocked, pol, classes, func(q int) int { return q % n })
	views := make([]Buffer, inputs)
	for i := range views {
		views[i] = &PoolBuffer{composed{
			g:          g,
			kind:       cfg.Kind,
			numOutputs: n,
			nominalCap: cfg.Capacity,
			qBase:      i * n,
			slotBase:   i * cfg.Capacity,
			maxReads:   kindReads(cfg.Kind, n),
			portCheck:  KindModern(cfg.Kind),
			prefix:     kindPrefix(cfg.Kind),
		}}
	}
	return views, nil
}

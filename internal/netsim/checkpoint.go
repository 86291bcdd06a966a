// Checkpoint codec for the network simulator (DESIGN.md §13): Checkpoint
// serializes a complete mid-run Sim — cycle position, every slot pool's
// register state, buffered and source-queued packets with identities,
// RNG stream states, fault-injection position, measurement partials, and
// (when observed) instrument values — and RestoreSim rebuilds a Sim that
// continues byte-identically to the uninterrupted run, at any worker
// count. Everything derivable from the config is rebuilt by New, not
// stored: topology, shard partition, probes, scratch buffers, and the
// packet allocators' free lists. The scratch (pending grants, outboxes)
// is dead at cycle boundaries, which is where checkpoints are taken.
//
// Corrupted streams are rejected with errors wrapping
// cfgerr.ErrBadCheckpoint (or cfgerr.ErrCheckpointVersion for version
// skew), never a panic: every count, index, and register decoded here is
// validated against the geometry rebuilt from the config before any
// structure walks it.
package netsim

import (
	"fmt"
	"io"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/packet"
	"damq/internal/rng"
	"damq/internal/stats"
	"damq/internal/sw"
	"damq/internal/traffic"
)

// Section tags of the checkpoint payload, in stream order. Faults and
// observer sections are present only when the corresponding subsystem is
// attached, so a fault-free unobserved checkpoint has exactly five
// sections.
const (
	secConfig   uint8 = 1
	secCore     uint8 = 2
	secSwitches uint8 = 3
	secSources  uint8 = 4
	secShards   uint8 = 5
	secFaults   uint8 = 6
	secObserver uint8 = 7
)

// pktWireSize is the encoded size of one packet body, the unit Count
// uses to bound packet-list lengths against the remaining payload.
const pktWireSize = 9*8 + 1

// Delivery is the identity tuple of one measured delivery, logged when
// RecordDeliveries is on. The torture tests compare delivery logs of a
// restored run against the uninterrupted twin's tail, which pins not
// just the aggregate metrics but which packet arrived where and when.
type Delivery struct {
	ID          uint64
	Source      int
	Dest        int
	Born        int64
	Injected    int64
	DeliveredAt int64
}

// RecordDeliveries toggles per-delivery identity logging. Off by default:
// the log grows linearly with the measured run. The flag is an execution
// knob like Workers and is not part of a checkpoint.
func (s *Sim) RecordDeliveries(on bool) { s.recordDeliv = on }

// Deliveries returns the logged measured deliveries, merged in shard
// order (the same topology-determined order Collect merges partials in,
// so the sequence is identical at every worker count).
func (s *Sim) Deliveries() []Delivery {
	var out []Delivery
	for _, sh := range s.shards {
		out = append(out, sh.deliv...)
	}
	return out
}

// Measured returns the number of measuring Steps taken so far.
func (s *Sim) Measured() int64 { return s.measured }

// Config returns the simulation's resolved configuration — after a
// restore, the checkpointed one (with any Workers override applied), so
// CLIs can describe a resumed run without re-supplying its flags.
func (s *Sim) Config() Config { return s.cfg }

// ckptErr wraps a restore-time structural failure in the checkpoint
// sentinel so callers classify with errors.Is(err, cfgerr.ErrBadCheckpoint).
func ckptErr(format string, args ...any) error {
	return fmt.Errorf("netsim: "+format+": %w", append(args, cfgerr.ErrBadCheckpoint)...)
}

// Checkpoint writes the simulation's complete state to w. Call it only
// between cycles (never from another goroutine mid-Step); Run-level
// checkpointing (RunCtxCheckpoint) does exactly that. The stream is
// self-describing and versioned; it does not capture the Workers knob's
// effect (there is none — results are byte-identical at every worker
// count), the observer attachment itself, or the delivery log.
func (s *Sim) Checkpoint(w io.Writer) error {
	e := checkpoint.NewEncoder()
	var encErr error
	e.Section(secConfig, s.encodeConfig)
	e.Section(secCore, func(e *checkpoint.Encoder) {
		e.I64(s.cycle)
		e.I64(s.warmupBoundary)
		e.I64(s.measured)
		encodeSummary(e, s.backlog.Save())
	})
	e.Section(secSwitches, s.encodeSwitches)
	e.Section(secSources, s.encodeSources)
	e.Section(secShards, func(e *checkpoint.Encoder) {
		if err := s.encodeShards(e); err != nil && encErr == nil {
			encErr = err
		}
	})
	if s.flt != nil {
		e.Section(secFaults, s.encodeFaults)
	}
	if s.metrics != nil {
		e.Section(secObserver, s.encodeObserver)
	}
	if encErr != nil {
		return encErr
	}
	return e.Emit(w)
}

func (s *Sim) encodeConfig(e *checkpoint.Encoder) {
	c := s.cfg
	e.Int(c.Radix)
	e.Int(c.Inputs)
	e.Int(int(c.BufferKind))
	e.Int(c.Capacity)
	e.Int(int(c.Policy))
	e.Int(int(c.Protocol))
	e.Int(c.ClocksPerCycle)
	e.Int(int(c.Traffic.Kind))
	e.F64(c.Traffic.Load)
	e.F64(c.Traffic.HotFraction)
	e.Int(c.Traffic.HotDest)
	e.Ints(c.Traffic.Perm)
	e.F64(c.Traffic.MeanBurst)
	e.Int(c.Traffic.MinSlots)
	e.Int(c.Traffic.MaxSlots)
	e.I64(c.WarmupCycles)
	e.I64(c.MeasureCycles)
	e.U64(c.Seed)
	e.Int(c.Workers)
	e.Bool(c.SharedPool)
	e.F64(c.Sharing.Alpha)
	e.Int(c.Sharing.Classes)
	e.I64(c.Sharing.DelayTarget)
}

func decodeConfig(d *checkpoint.Decoder) Config {
	var c Config
	c.Radix = d.Int()
	c.Inputs = d.Int()
	c.BufferKind = buffer.Kind(d.Int())
	c.Capacity = d.Int()
	c.Policy = arbiter.Policy(d.Int())
	c.Protocol = sw.Protocol(d.Int())
	c.ClocksPerCycle = d.Int()
	c.Traffic.Kind = TrafficKind(d.Int())
	c.Traffic.Load = d.F64()
	c.Traffic.HotFraction = d.F64()
	c.Traffic.HotDest = d.Int()
	c.Traffic.Perm = d.Ints()
	c.Traffic.MeanBurst = d.F64()
	c.Traffic.MinSlots = d.Int()
	c.Traffic.MaxSlots = d.Int()
	c.WarmupCycles = d.I64()
	c.MeasureCycles = d.I64()
	c.Seed = d.U64()
	c.Workers = d.Int()
	c.SharedPool = d.Bool()
	c.Sharing.Alpha = d.F64()
	c.Sharing.Classes = d.Int()
	c.Sharing.DelayTarget = d.I64()
	return c
}

func encodePacket(e *checkpoint.Encoder, p *packet.Packet) {
	e.U64(p.ID)
	e.Int(p.Source)
	e.Int(p.Dest)
	e.Int(p.Slots)
	e.I64(p.Born)
	e.I64(p.Injected)
	e.Bool(p.Hot)
	e.Int(p.OutPort)
	e.Int(p.Bytes)
	e.I64(p.ReadyAt)
}

// decodePacket reads one packet body and validates the fields the
// simulator indexes with: Source feeds FirstStageSwitch, OutPort names a
// crossbar output, and Slots is charged against a maxSlots-slot pool.
func (s *Sim) decodePacket(d *checkpoint.Decoder, maxSlots int) (*packet.Packet, error) {
	p := &packet.Packet{
		ID:       d.U64(),
		Source:   d.Int(),
		Dest:     d.Int(),
		Slots:    d.Int(),
		Born:     d.I64(),
		Injected: d.I64(),
		Hot:      d.Bool(),
		OutPort:  d.Int(),
		Bytes:    d.Int(),
		ReadyAt:  d.I64(),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if p.Source < 0 || p.Source >= s.cfg.Inputs || p.Dest < 0 || p.Dest >= s.cfg.Inputs {
		return nil, ckptErr("packet %d addressed %d->%d outside the %d-input network",
			p.ID, p.Source, p.Dest, s.cfg.Inputs)
	}
	if p.Slots < 1 || p.Slots > maxSlots {
		return nil, ckptErr("packet %d occupies %d slots of a %d-slot pool", p.ID, p.Slots, maxSlots)
	}
	if p.OutPort < 0 || p.OutPort >= s.cfg.Radix {
		return nil, ckptErr("packet %d routed to output %d of a radix-%d switch", p.ID, p.OutPort, s.cfg.Radix)
	}
	if p.Injected < -1 || p.Bytes < 0 {
		return nil, ckptErr("packet %d has impossible bookkeeping (injected %d, %d bytes)",
			p.ID, p.Injected, p.Bytes)
	}
	return p, nil
}

func encodeSummary(e *checkpoint.Encoder, st stats.SummaryState) {
	e.I64(st.N)
	e.F64(st.Mean)
	e.F64(st.M2)
	e.F64(st.Min)
	e.F64(st.Max)
}

func decodeSummary(d *checkpoint.Decoder) stats.SummaryState {
	return stats.SummaryState{N: d.I64(), Mean: d.F64(), M2: d.F64(), Min: d.F64(), Max: d.F64()}
}

func encodeRng(e *checkpoint.Encoder, src *rng.Source) {
	st := src.State()
	e.U64(st[0])
	e.U64(st[1])
	e.U64(st[2])
	e.U64(st[3])
}

func decodeRng(d *checkpoint.Decoder, src *rng.Source, what string) error {
	st := [4]uint64{d.U64(), d.U64(), d.U64(), d.U64()}
	if d.Err() != nil {
		return d.Err()
	}
	if err := src.SetState(st); err != nil {
		return ckptErr("%s stream: %v", what, err)
	}
	return nil
}

// rngSourced is the accessor every RNG-backed traffic pattern exposes.
type rngSourced interface{ Src() *rng.Source }

func (s *Sim) encodeSwitches(e *checkpoint.Encoder) {
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			ast := swc.Arbiter().SaveState()
			e.Int(ast.Prio)
			e.I64s(ast.Stale)
			s.encodeSwitchPools(e, swc)
		}
	}
}

// encodeSwitchPools writes the slot-pool state behind one switch: one
// pool when the switch shares storage across its inputs, one per input
// port otherwise. Packet bodies ride inside the pool state, each exactly
// once (multi-slot packets occupy several slots but serialize once).
func (s *Sim) encodeSwitchPools(e *checkpoint.Encoder, swc *sw.Switch) {
	pools := swc.Ports()
	if s.cfg.SharedPool {
		pools = 1
	}
	for in := 0; in < pools; in++ {
		st := swc.Buffer(in).Pool().SaveState()
		e.I32s(st.Next)
		e.I32s(st.Owner)
		e.I32(st.FreeHead)
		e.I32(st.FreeTail)
		e.Int(st.FreeCount)
		e.I32s(st.QHead)
		e.I32s(st.QTail)
		e.Ints(st.QPkts)
		e.Ints(st.QSlots)
		e.Bool(st.Quar != nil)
		if st.Quar != nil {
			e.Bytes(st.Quar)
		}
		e.Int(st.QuarCount)
		e.Bool(st.HasClock)
		if st.HasClock {
			e.I64s(st.Stamp)
			e.I64(st.Now)
		}
		e.Int(len(st.Packets))
		for _, p := range st.Packets {
			encodePacket(e, p)
		}
	}
}

func (s *Sim) decodeSwitches(d *checkpoint.Decoder) error {
	for st := range s.stages {
		for si, swc := range s.stages[st] {
			ast := arbiter.State{Prio: d.Int(), Stale: d.I64s()}
			if d.Err() != nil {
				return d.Err()
			}
			if err := swc.Arbiter().LoadState(ast); err != nil {
				return ckptErr("stage %d switch %d arbiter: %v", st, si, err)
			}
			if err := s.decodeSwitchPools(d, st, si, swc); err != nil {
				return err
			}
			if err := swc.Resync(); err != nil {
				return ckptErr("stage %d switch %d: %v", st, si, err)
			}
		}
	}
	return nil
}

func (s *Sim) decodeSwitchPools(d *checkpoint.Decoder, stIdx, si int, swc *sw.Switch) error {
	pools := swc.Ports()
	maxSlots := s.cfg.Capacity
	if s.cfg.SharedPool {
		pools = 1
		maxSlots = s.cfg.Capacity * s.cfg.Radix
	}
	for in := 0; in < pools; in++ {
		st := &buffer.SlotPoolState{
			Next:      d.I32s(),
			Owner:     d.I32s(),
			FreeHead:  d.I32(),
			FreeTail:  d.I32(),
			FreeCount: d.Int(),
			QHead:     d.I32s(),
			QTail:     d.I32s(),
			QPkts:     d.Ints(),
			QSlots:    d.Ints(),
		}
		if d.Bool() {
			st.Quar = d.Bytes()
		}
		st.QuarCount = d.Int()
		st.HasClock = d.Bool()
		if st.HasClock {
			st.Stamp = d.I64s()
			st.Now = d.I64()
		}
		n := d.Count(pktWireSize)
		for i := 0; i < n; i++ {
			p, err := s.decodePacket(d, maxSlots)
			if err != nil {
				return err
			}
			st.Packets = append(st.Packets, p)
		}
		if d.Err() != nil {
			return d.Err()
		}
		if err := swc.Buffer(in).Pool().LoadState(st); err != nil {
			return ckptErr("stage %d switch %d input %d: %v", stIdx, si, in, err)
		}
		views := []*buffer.Buffer{swc.Buffer(in)}
		if s.cfg.SharedPool {
			views = swc.Buffers()
		}
		if err := buffer.ResyncAfterRestore(views); err != nil {
			return ckptErr("stage %d switch %d input %d: %v", stIdx, si, in, err)
		}
	}
	return nil
}

// encodeSources writes the blocking protocol's unbounded source queues:
// per network input, the waiting packets front to back. Under discarding
// every queue is empty and the section is a run of zero counts.
func (s *Sim) encodeSources(e *checkpoint.Encoder) {
	for i := range s.srcQ {
		q := &s.srcQ[i]
		e.Int(q.Len())
		for j := 0; j < q.Len(); j++ {
			encodePacket(e, q.At(j))
		}
	}
}

func (s *Sim) decodeSources(d *checkpoint.Decoder) error {
	// A source-queued packet's size is only charged at admission (where
	// the buffer bounds it); the structural requirement here is the queue
	// index, so the slot bound is the loosest the config can generate.
	slotCap := s.cfg.Capacity
	if s.cfg.Traffic.MaxSlots > slotCap {
		slotCap = s.cfg.Traffic.MaxSlots
	}
	if s.cfg.Traffic.MinSlots > slotCap {
		slotCap = s.cfg.Traffic.MinSlots
	}
	for i := range s.srcQ {
		n := d.Count(pktWireSize)
		for j := 0; j < n; j++ {
			p, err := s.decodePacket(d, slotCap)
			if err != nil {
				return err
			}
			if p.Source != i {
				return ckptErr("packet %d queued at source %d claims source %d", p.ID, i, p.Source)
			}
			s.srcQ[i].PushBack(p)
		}
	}
	return d.Err()
}

func (s *Sim) encodeShards(e *checkpoint.Encoder) error {
	e.Int(len(s.shards))
	for _, sh := range s.shards {
		pat, ok := sh.pattern.(rngSourced)
		if !ok {
			return fmt.Errorf("netsim: %T traffic pattern cannot be checkpointed", sh.pattern)
		}
		encodeRng(e, pat.Src())
		if b, ok := sh.pattern.(*traffic.Bursty); ok {
			rem, dst := b.BurstState()
			e.Ints(rem)
			e.Ints(dst)
		}
		if ul, ok := sh.lengths.(traffic.UniformLengths); ok {
			encodeRng(e, ul.Src)
		}
		encodeRng(e, sh.phase)
		e.U64(sh.alloc.Issued())
		e.I64(sh.inFlight)
		e.I64(sh.srcBacklog)
		e.I64(sh.faulted)
		encodePartial(e, &sh.partial)
		for st := range sh.lastArb {
			e.I64s(sh.lastArb[st])
		}
	}
	return nil
}

func (s *Sim) decodeShards(d *checkpoint.Decoder, cycle int64) error {
	if n := d.Int(); n != len(s.shards) || d.Err() != nil {
		if d.Err() != nil {
			return d.Err()
		}
		return ckptErr("%d shard records for a %d-shard topology", n, len(s.shards))
	}
	for _, sh := range s.shards {
		pat, ok := sh.pattern.(rngSourced)
		if !ok {
			return ckptErr("%T traffic pattern cannot be restored", sh.pattern)
		}
		if err := decodeRng(d, pat.Src(), "traffic"); err != nil {
			return err
		}
		if b, ok := sh.pattern.(*traffic.Bursty); ok {
			rem, dst := d.Ints(), d.Ints()
			if d.Err() != nil {
				return d.Err()
			}
			if err := b.SetBurstState(rem, dst); err != nil {
				return ckptErr("shard %d burst registers: %v", sh.id, err)
			}
		}
		if ul, ok := sh.lengths.(traffic.UniformLengths); ok {
			if err := decodeRng(d, ul.Src, "length"); err != nil {
				return err
			}
		}
		if err := decodeRng(d, sh.phase, "phase"); err != nil {
			return err
		}
		sh.alloc.SetIssued(d.U64())
		sh.inFlight = d.I64()
		sh.srcBacklog = d.I64()
		sh.faulted = d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		if sh.srcBacklog < 0 || sh.faulted < 0 {
			return ckptErr("shard %d has negative backlog or fault count", sh.id)
		}
		if err := decodePartial(d, &sh.partial, sh.id); err != nil {
			return err
		}
		for st := range sh.lastArb {
			arb := d.I64s()
			if d.Err() != nil {
				return d.Err()
			}
			if len(arb) != len(sh.lastArb[st]) {
				return ckptErr("shard %d stage %d has %d arbitration stamps for %d switches",
					sh.id, st, len(arb), len(sh.lastArb[st]))
			}
			for i, v := range arb {
				if v < -1 || v > cycle {
					return ckptErr("shard %d stage %d switch %d arbitrated at impossible cycle %d",
						sh.id, st, i, v)
				}
			}
			copy(sh.lastArb[st], arb)
		}
	}
	return nil
}

func encodePartial(e *checkpoint.Encoder, r *Result) {
	e.I64(r.Generated)
	e.I64(r.Injected)
	e.I64(r.Delivered)
	e.I64(r.DiscardedAtEntry)
	e.I64(r.DiscardedInNet)
	e.I64(r.FaultedInNet)
	encodeSummary(e, r.LatencyFromBorn.Save())
	encodeSummary(e, r.LatencyFromInjection.Save())
	encodeSummary(e, r.HotLatency.Save())
	encodeSummary(e, r.ColdLatency.Save())
	encodeSummary(e, r.Occupancy.Save())
	for st := range r.StageOccupancy {
		encodeSummary(e, r.StageOccupancy[st].Save())
	}
	h := r.LatencyHist.Save()
	e.F64(h.Width)
	e.I64s(h.Counts)
	e.I64(h.Overflow)
	e.I64(h.Total)
	e.F64(h.Sum)
}

func decodePartial(d *checkpoint.Decoder, r *Result, shardID int) error {
	r.Generated = d.I64()
	r.Injected = d.I64()
	r.Delivered = d.I64()
	r.DiscardedAtEntry = d.I64()
	r.DiscardedInNet = d.I64()
	r.FaultedInNet = d.I64()
	if d.Err() != nil {
		return d.Err()
	}
	for _, c := range []int64{r.Generated, r.Injected, r.Delivered,
		r.DiscardedAtEntry, r.DiscardedInNet, r.FaultedInNet} {
		if c < 0 {
			return ckptErr("shard %d has a negative packet counter", shardID)
		}
	}
	sums := []*stats.Summary{
		&r.LatencyFromBorn, &r.LatencyFromInjection,
		&r.HotLatency, &r.ColdLatency, &r.Occupancy,
	}
	for st := range r.StageOccupancy {
		sums = append(sums, &r.StageOccupancy[st])
	}
	for _, sum := range sums {
		st := decodeSummary(d)
		if d.Err() != nil {
			return d.Err()
		}
		if err := sum.Load(st); err != nil {
			return ckptErr("shard %d summary: %v", shardID, err)
		}
	}
	h := stats.HistogramState{
		Width:    d.F64(),
		Counts:   d.I64s(),
		Overflow: d.I64(),
		Total:    d.I64(),
		Sum:      d.F64(),
	}
	if d.Err() != nil {
		return d.Err()
	}
	if err := r.LatencyHist.Load(h); err != nil {
		return ckptErr("shard %d latency histogram: %v", shardID, err)
	}
	return nil
}

func (s *Sim) encodeFaults(e *checkpoint.Encoder) {
	fc := s.flt.cfg
	e.U64(fc.Seed)
	e.F64(fc.SlotStuckRate)
	e.F64(fc.WireCorruptRate)
	e.F64(fc.LinkTransientRate)
	e.F64(fc.LinkDeadRate)
	e.Int(fc.RetryLimit)
	e.Int(fc.RetryBackoff)
	e.Int(s.flt.next)
	e.I64(s.flt.quarSlots)
}

// decodeFaults re-arms fault injection from the resolved config (the
// schedule seed was resolved at the original SetFaults, so no derivation
// re-runs) and fast-forwards the slot-failure schedule past the events
// the checkpointed run already applied — the quarantined slots themselves
// ride in the pool states.
func (s *Sim) decodeFaults(d *checkpoint.Decoder) error {
	fc := fault.Config{
		Seed:              d.U64(),
		SlotStuckRate:     d.F64(),
		WireCorruptRate:   d.F64(),
		LinkTransientRate: d.F64(),
		LinkDeadRate:      d.F64(),
		RetryLimit:        d.Int(),
		RetryBackoff:      d.Int(),
	}
	next, quarSlots := d.Int(), d.I64()
	if d.Err() != nil {
		return d.Err()
	}
	if err := s.SetFaults(fc); err != nil {
		return ckptErr("fault config: %v", err)
	}
	if s.flt == nil {
		return ckptErr("fault section present but the stored config is disabled")
	}
	if next < 0 || next > len(s.flt.events) {
		return ckptErr("fault schedule position %d outside the %d-event schedule", next, len(s.flt.events))
	}
	if quarSlots < 0 || quarSlots < int64(next) {
		return ckptErr("%d quarantined slots with %d slot faults applied", quarSlots, next)
	}
	s.flt.next = next
	s.flt.quarSlots = quarSlots
	return nil
}

// obsState carries a checkpoint's instrument values on a restored Sim
// until an observer attaches (SetObserver applies and clears it). The
// names and histogram shapes were validated against this simulation's
// instrument set at restore time, so apply cannot fail or panic.
type obsState struct {
	interval   int64
	lastSample int64
	counters   []namedInt
	gauges     []namedInt
	hists      []histState
	series     []obs.IntervalRecord
}

type namedInt struct {
	name string
	val  int64
}

type histState struct {
	name     string
	width    int64
	buckets  []int64
	overflow int64
	total    int64
	sum      int64
}

func (st *obsState) apply(s *Sim) {
	m := s.metrics
	r := m.observer.Registry()
	for _, c := range st.counters {
		r.Counter(c.name).Set(c.val)
	}
	for _, g := range st.gauges {
		r.Gauge(g.name).Set(g.val)
	}
	for _, h := range st.hists {
		// Shape and totals were pre-validated; Restore cannot fail.
		_ = r.Histogram(h.name, len(h.buckets), h.width).Restore(h.buckets, h.overflow, h.total, h.sum)
	}
	m.observer.SetInterval(st.interval)
	m.observer.RestoreSeries(st.series)
	m.lastSample = st.lastSample
}

func (s *Sim) encodeObserver(e *checkpoint.Encoder) {
	o := s.metrics.observer
	r := o.Registry()
	e.I64(o.Interval())
	e.I64(s.metrics.lastSample)
	cnames := r.CounterNames()
	e.Int(len(cnames))
	for _, n := range cnames {
		e.String(n)
		e.I64(r.Counter(n).Value())
	}
	gnames := r.GaugeNames()
	e.Int(len(gnames))
	for _, n := range gnames {
		e.String(n)
		e.I64(r.Gauge(n).Value())
	}
	hnames := r.HistogramNames()
	e.Int(len(hnames))
	for _, n := range hnames {
		h, _ := r.LookupHistogram(n)
		e.String(n)
		e.I64(h.Width())
		e.I64s(h.Buckets())
		e.I64(h.Overflow())
		e.I64(h.Total())
		e.I64(h.Sum())
	}
	series := o.Series()
	e.Int(len(series))
	for i := range series {
		rec := &series[i]
		e.I64(rec.Cycle)
		e.I64(rec.Generated)
		e.I64(rec.Injected)
		e.I64(rec.Delivered)
		e.I64(rec.Discarded)
		e.I64(rec.InFlight)
		e.I64(rec.Backlog)
		e.I64(rec.LatencySum)
		e.I64(rec.LatencyCount)
	}
}

func (s *Sim) decodeObserver(d *checkpoint.Decoder) (*obsState, error) {
	st := &obsState{interval: d.I64(), lastSample: d.I64()}
	nc := d.Count(9)
	for i := 0; i < nc; i++ {
		st.counters = append(st.counters, namedInt{name: d.String(), val: d.I64()})
	}
	ng := d.Count(9)
	for i := 0; i < ng; i++ {
		st.gauges = append(st.gauges, namedInt{name: d.String(), val: d.I64()})
	}
	nh := d.Count(9)
	for i := 0; i < nh; i++ {
		st.hists = append(st.hists, histState{
			name:     d.String(),
			width:    d.I64(),
			buckets:  d.I64s(),
			overflow: d.I64(),
			total:    d.I64(),
			sum:      d.I64(),
		})
	}
	ns := d.Count(9 * 8)
	for i := 0; i < ns; i++ {
		st.series = append(st.series, obs.IntervalRecord{
			Cycle:        d.I64(),
			Generated:    d.I64(),
			Injected:     d.I64(),
			Delivered:    d.I64(),
			Discarded:    d.I64(),
			InFlight:     d.I64(),
			Backlog:      d.I64(),
			LatencySum:   d.I64(),
			LatencyCount: d.I64(),
		})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err := s.validateObsState(st); err != nil {
		return nil, err
	}
	return st, nil
}

// validateObsState checks a decoded observer section against the
// instrument set this simulation registers: unknown names, mismatched
// histogram shapes, or inconsistent totals are corruption. Passing means
// obsState.apply cannot fail, whichever observer later attaches.
func (s *Sim) validateObsState(st *obsState) error {
	counters := map[string]bool{
		MetricGenerated: true, MetricInjected: true, MetricDelivered: true,
		MetricDiscardedEntry: true, MetricDiscardedNet: true,
		MetricGrants: true, MetricConflicts: true,
		MetricBlockedHeads: true, MetricOfferRefused: true,
	}
	gauges := map[string]bool{MetricInFlight: true, MetricSourceBacklog: true}
	for stage := range s.stages {
		gauges[StageOccupancyMetric(stage)] = true
	}
	type shape struct {
		buckets int
		width   int64
	}
	c := int64(s.cfg.ClocksPerCycle)
	hists := map[string]shape{
		MetricQueueDepth:      {s.cfg.Capacity + 1, 1},
		MetricLatencyBorn:     {4096, c},
		MetricLatencyInjected: {4096, c},
	}
	if buffer.KindModern(s.cfg.BufferKind) || s.cfg.SharedPool {
		poolCap := s.cfg.Capacity
		if s.cfg.SharedPool {
			poolCap *= s.cfg.Radix
		}
		hists[MetricPoolSlotsUsed] = shape{poolCap + 1, 1}
		counters[MetricPolicyRefused] = true
	}
	if s.flt != nil {
		counters[fault.MetricLinkDrops] = true
		counters[fault.MetricSlotsQuarantined] = true
	}
	for _, cv := range st.counters {
		if !counters[cv.name] {
			return ckptErr("checkpointed counter %q is not one this simulation registers", cv.name)
		}
		if cv.val < 0 {
			return ckptErr("checkpointed counter %q is negative", cv.name)
		}
	}
	for _, gv := range st.gauges {
		if !gauges[gv.name] {
			return ckptErr("checkpointed gauge %q is not one this simulation registers", gv.name)
		}
	}
	for _, hv := range st.hists {
		want, ok := hists[hv.name]
		if !ok {
			return ckptErr("checkpointed histogram %q is not one this simulation registers", hv.name)
		}
		if len(hv.buckets) != want.buckets || hv.width != want.width {
			return ckptErr("checkpointed histogram %q has shape %dx%d, this simulation registers %dx%d",
				hv.name, len(hv.buckets), hv.width, want.buckets, want.width)
		}
		var n int64
		for _, b := range hv.buckets {
			if b < 0 {
				return ckptErr("checkpointed histogram %q has a negative bucket", hv.name)
			}
			n += b
		}
		if hv.overflow < 0 || n+hv.overflow != hv.total {
			return ckptErr("checkpointed histogram %q total %d disagrees with its buckets", hv.name, hv.total)
		}
	}
	if st.interval < 0 {
		return ckptErr("negative observer interval %d", st.interval)
	}
	return nil
}

// checkpointSanity bounds a decoded config's geometry before New builds
// it. New's own validation is semantic (power-of-radix widths, policy
// compatibility); these caps are the restore path's defense against a
// corrupted stream that happens to decode into a structurally valid but
// astronomically large topology — the allocation must be refused as
// corruption, not attempted. Every cap sits far above the largest
// configuration the experiments run (the README tour's 1024×1024 network
// uses ~20K slots; the cap allows 4M).
func (c Config) checkpointSanity() error {
	c = c.withDefaults()
	if c.Radix < 2 || c.Radix > 256 || c.Inputs < c.Radix || c.Inputs > 1<<16 {
		return ckptErr("implausible topology (%d inputs, radix %d)", c.Inputs, c.Radix)
	}
	if c.Capacity < 1 || c.Capacity > 1<<12 {
		return ckptErr("implausible buffer capacity %d", c.Capacity)
	}
	if c.ClocksPerCycle < 1 || c.ClocksPerCycle > 1<<16 {
		return ckptErr("implausible clocks-per-cycle %d", c.ClocksPerCycle)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 0 {
		return ckptErr("negative run length (%d warmup, %d measured)", c.WarmupCycles, c.MeasureCycles)
	}
	if c.Sharing.Classes < 0 || c.Sharing.Classes > 1<<12 {
		return ckptErr("implausible class count %d", c.Sharing.Classes)
	}
	if c.Traffic.MinSlots < 0 || c.Traffic.MinSlots > 1<<12 ||
		c.Traffic.MaxSlots < 0 || c.Traffic.MaxSlots > 1<<12 {
		return ckptErr("implausible packet sizes (%d..%d slots)", c.Traffic.MinSlots, c.Traffic.MaxSlots)
	}
	stages := 0
	for n := 1; n < c.Inputs && stages <= 16; n *= c.Radix {
		stages++
	}
	if slots := stages * (c.Inputs / c.Radix) * c.Radix * c.Capacity; slots > 1<<22 {
		return ckptErr("topology implies %d buffer slots, over the restore cap", slots)
	}
	return nil
}

// RestoreOpts adjusts how RestoreSimOpts rebuilds the simulation.
type RestoreOpts struct {
	// Workers overrides the checkpointed Workers knob when WorkersSet is
	// true. The shard partition is a pure function of the topology, so a
	// checkpoint taken at any worker count restores at any other with
	// byte-identical results.
	Workers    int
	WorkersSet bool
}

// RestoreSim reads a checkpoint written by Checkpoint and rebuilds the
// simulation at the exact cycle it was captured: continuing it (Run,
// RunCtx, Step) produces byte-identical results to the uninterrupted
// run. Corrupted or truncated input yields an error wrapping
// cfgerr.ErrBadCheckpoint (cfgerr.ErrCheckpointVersion for a version
// mismatch), never a panic. An observed run's instrument values are
// carried over and applied when SetObserver attaches an observer.
func RestoreSim(r io.Reader) (*Sim, error) {
	return RestoreSimOpts(r, RestoreOpts{})
}

// RestoreSimOpts is RestoreSim with execution-knob overrides.
func RestoreSimOpts(r io.Reader, opts RestoreOpts) (*Sim, error) {
	d, err := checkpoint.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	secs := make(map[uint8]*checkpoint.Decoder)
	order := []uint8{secConfig, secCore, secSwitches, secSources, secShards, secFaults, secObserver}
	pos := 0
	for {
		tag, body, ok := d.Section()
		if !ok {
			break
		}
		for pos < len(order) && order[pos] != tag {
			pos++
		}
		if pos == len(order) {
			return nil, ckptErr("unknown or out-of-order section tag %d", tag)
		}
		secs[tag] = body
		pos++
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	for _, tag := range order[:5] {
		if secs[tag] == nil {
			return nil, ckptErr("checkpoint is missing section %d", tag)
		}
	}

	cfgd := secs[secConfig]
	cfg := decodeConfig(cfgd)
	if err := cfgd.Done(); err != nil {
		return nil, err
	}
	if opts.WorkersSet {
		cfg.Workers = opts.Workers
	}
	if err := cfg.checkpointSanity(); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, ckptErr("checkpointed config: %v", err)
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	cored := secs[secCore]
	cycle := cored.I64()
	warmupBoundary := cored.I64()
	measured := cored.I64()
	backlog := decodeSummary(cored)
	if err := cored.Done(); err != nil {
		return nil, err
	}
	if cycle < 0 || measured < 0 || measured > cycle ||
		warmupBoundary < 0 || warmupBoundary > cycle {
		return nil, ckptErr("impossible clock state (cycle %d, measured %d, boundary %d)",
			cycle, measured, warmupBoundary)
	}
	if backlog.N != measured {
		return nil, ckptErr("backlog summary has %d samples over %d measured cycles", backlog.N, measured)
	}

	// Faults re-arm before the cycle counter moves (SetFaults requires
	// cycle 0) and before the observer section is validated (fault
	// instruments are only expected when faults are armed).
	if fd := secs[secFaults]; fd != nil {
		if err := s.decodeFaults(fd); err != nil {
			return nil, err
		}
		if err := fd.Done(); err != nil {
			return nil, err
		}
	}
	if err := s.decodeSwitches(secs[secSwitches]); err != nil {
		return nil, err
	}
	if err := secs[secSwitches].Done(); err != nil {
		return nil, err
	}
	if err := s.decodeSources(secs[secSources]); err != nil {
		return nil, err
	}
	if err := secs[secSources].Done(); err != nil {
		return nil, err
	}
	if err := s.decodeShards(secs[secShards], cycle); err != nil {
		return nil, err
	}
	if err := secs[secShards].Done(); err != nil {
		return nil, err
	}
	if od := secs[secObserver]; od != nil {
		st, err := s.decodeObserver(od)
		if err != nil {
			return nil, err
		}
		if err := od.Done(); err != nil {
			return nil, err
		}
		s.pendingObs = st
	}

	if err := s.resyncAfterRestore(); err != nil {
		return nil, err
	}
	s.cycle = cycle
	s.warmupBoundary = warmupBoundary
	s.measured = measured
	if err := s.backlog.Load(backlog); err != nil {
		return nil, ckptErr("backlog summary: %v", err)
	}
	ok = true
	return s, nil
}

// resyncAfterRestore rebuilds the derived per-shard structures (active
// sets, sorted by construction) and cross-checks the global conservation
// invariants that tie the decoded sections together: the shards'
// in-flight counters must sum to the packets actually buffered, and each
// shard's backlog counter must equal its own source queues' lengths.
func (s *Sim) resyncAfterRestore() error {
	var buffered, inFlight int64
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			buffered += int64(swc.Len())
		}
	}
	for _, sh := range s.shards {
		inFlight += sh.inFlight
		sh.nActive = 0
		for st := range s.stages {
			sh.active[st] = sh.active[st][:0]
			for si := sh.lo; si < sh.hi; si++ {
				if !s.stages[st][si].Empty() {
					sh.active[st] = append(sh.active[st], int32(si))
				}
			}
			sh.nActive += len(sh.active[st])
		}
		var backlog int64
		for _, src := range sh.srcs {
			backlog += int64(s.srcQ[src].Len())
		}
		if backlog != sh.srcBacklog {
			return ckptErr("shard %d backlog counter %d disagrees with %d queued packets",
				sh.id, sh.srcBacklog, backlog)
		}
	}
	if inFlight != buffered {
		return ckptErr("in-flight counters sum to %d but %d packets are buffered", inFlight, buffered)
	}
	return nil
}

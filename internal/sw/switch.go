// Package sw models one n×n packet switch under the long-clock model:
// per-input buffers of any of the paper's four organizations, a crossbar,
// and a central arbiter. A network simulator (package netsim) composes
// switches into stages; this package also supports standalone Monte-Carlo
// runs of a single discarding switch, used to cross-validate the Markov
// models and to reproduce Table-2-like behaviour by simulation.
//
// Cycle structure (one long clock, matching DESIGN.md §4):
//
//  1. Arbitrate: the switch inspects its buffers and the downstream
//     admission state (via a caller-supplied probe) and computes a
//     crossbar matching.
//  2. Transmit: granted packets are popped.
//  3. Deliver/accept: the caller moves popped packets downstream; freed
//     slots become visible to arrivals.
//  4. Arrivals: the caller offers new packets to input ports; a packet
//     that does not fit is discarded (discarding protocol) or stays
//     upstream (blocking protocol).
package sw

import (
	"fmt"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/names"
	"damq/internal/obs"
	"damq/internal/packet"
)

// Protocol is the network flow-control discipline.
type Protocol int

const (
	// Discarding switches drop packets that arrive at a full buffer.
	Discarding Protocol = iota
	// Blocking switches prevent the upstream from sending into a full
	// buffer, propagating back-pressure.
	Blocking
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Discarding:
		return "discarding"
	case Blocking:
		return "blocking"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// protocolNames lists the protocols in enum order for the shared parser.
var protocolNames = [...]string{"discarding", "blocking"}

// ParseProtocol converts "discarding" or "blocking" (any case) to a
// Protocol. The error wraps cfgerr.ErrBadProtocol.
func ParseProtocol(s string) (Protocol, error) {
	if i := names.Index(s, protocolNames[:]); i >= 0 {
		return Protocol(i), nil
	}
	return 0, fmt.Errorf("sw: unknown protocol %q (want %s): %w",
		s, names.List(protocolNames[:]), cfgerr.ErrBadProtocol)
}

// Config describes one switch.
type Config struct {
	Ports      int // n: number of input ports and of output ports
	BufferKind buffer.Kind
	Capacity   int // slots per input buffer
	Policy     arbiter.Policy
	// SharedPool makes all input ports share one storage group of
	// Ports*Capacity slots (buffer.NewSharedGroup) instead of owning
	// Capacity slots each. Requires a pooled kind (buffer.KindSharesPool).
	SharedPool bool
	// Sharing tunes the modern admission policies (DT/FB/BSHARE).
	Sharing buffer.Sharing
}

// bufferConfig is the per-input buffer geometry the switch constructs.
func (cfg Config) bufferConfig() buffer.Config {
	return buffer.Config{
		Kind:       cfg.BufferKind,
		NumOutputs: cfg.Ports,
		Capacity:   cfg.Capacity,
		Sharing:    cfg.Sharing,
	}
}

// Validate checks the config using the repo-wide sentinel-error
// convention (see internal/cfgerr): port-count errors wrap ErrBadPorts,
// buffer shape errors wrap ErrBadKind/ErrBadCapacity, policy errors
// wrap ErrBadPolicy, sharing errors wrap ErrBadSharing.
func (cfg Config) Validate() error {
	if cfg.Ports <= 0 {
		return fmt.Errorf("sw: ports must be positive, got %d: %w", cfg.Ports, cfgerr.ErrBadPorts)
	}
	if cfg.Policy != arbiter.Dumb && cfg.Policy != arbiter.Smart {
		return fmt.Errorf("sw: unknown policy %v: %w", cfg.Policy, cfgerr.ErrBadPolicy)
	}
	if cfg.SharedPool && !buffer.KindSharesPool(cfg.BufferKind) {
		return fmt.Errorf("sw: %v (policy %s) cannot span input ports as a shared pool: %w",
			cfg.BufferKind, cfg.BufferKind.PolicyName(), cfgerr.ErrBadSharing)
	}
	return cfg.bufferConfig().Validate()
}

// Switch is one n×n switch instance.
type Switch struct {
	cfg  Config
	bufs []*buffer.Buffer
	arb  *arbiter.Arbiter
	// count tracks buffered packets across all input buffers so Len and
	// Empty are O(1); the active-set network simulator polls them every
	// cycle. It stays correct as long as buffer contents change only
	// through Offer, PopGrant, and Reset.
	count int
	// rows is the arbiter's request matrix, one HeadMask per input,
	// refilled every Arbitrate call; reads is the inputs' common
	// read-port limit.
	rows  []uint64
	reads int
	// probe is the caller's block probe, held only for the duration of
	// one Arbitrate call.
	probe BlockProbe
	// m holds the observability probes; nil (the default) keeps every
	// hot-path probe behind a never-taken branch.
	m *Metrics
	// clocked is set when the kind's admission policy reads packet ages
	// (BSHARE), so clockless switches pay one flag test in Tick.
	clocked bool
}

// Metrics is the instrument set one observed switch maintains. Grant,
// conflict, and blocked-head counts are delegated to the arbiter; the
// refused-offer count is the switch's own admission signal (under
// discarding these are drops at this switch, under blocking they are
// stage-0 injection stalls — in-network heads are never offered while
// blocked). Fields may be nil individually.
type Metrics struct {
	Grants       *obs.Counter
	Conflicts    *obs.Counter
	BlockedHeads *obs.Counter
	OfferRefused *obs.Counter
}

// SetMetrics attaches (nil detaches) the switch's instrument set and
// forwards the arbitration counters to the arbiter. Cold path.
func (s *Switch) SetMetrics(m *Metrics) {
	s.m = m
	if m == nil {
		s.arb.SetMetrics(nil, nil, nil)
		return
	}
	s.arb.SetMetrics(m.Grants, m.Conflicts, m.BlockedHeads)
}

// New builds a switch. It returns an error for invalid buffer configs
// (e.g. SAMQ capacity not divisible by the port count).
func New(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch{
		cfg:  cfg,
		arb:  arbiter.New(cfg.Policy, cfg.Ports, cfg.Ports),
		rows: make([]uint64, cfg.Ports),
	}
	if cfg.SharedPool {
		bufs, err := buffer.NewSharedGroup(cfg.bufferConfig(), cfg.Ports)
		if err != nil {
			return nil, fmt.Errorf("sw: shared pool: %w", err)
		}
		s.bufs = bufs
	} else {
		for i := 0; i < cfg.Ports; i++ {
			b, err := buffer.New(cfg.bufferConfig())
			if err != nil {
				return nil, fmt.Errorf("sw: input %d: %w", i, err)
			}
			s.bufs = append(s.bufs, b)
		}
	}
	s.reads = s.bufs[0].MaxReadsPerCycle()
	s.clocked = buffer.KindUsesClock(cfg.BufferKind)
	return s, nil
}

// Tick advances the clock of every age-reading buffer by one long cycle.
// Clockless kinds make it a flag-test no-op; under a shared pool every
// view is ticked and the buffer advances the group clock once. The
// network simulator calls it from the inject phase — after all of a
// cycle's admission probes are done — so ages only ever change between
// cycles, never mid-arbitration.
// damqvet:hotpath
func (s *Switch) Tick() {
	if !s.clocked {
		return
	}
	for _, b := range s.bufs {
		b.Tick()
	}
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Switch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Ports returns n.
func (s *Switch) Ports() int { return s.cfg.Ports }

// Buffer exposes input i's buffer (for probes, tests, and statistics).
func (s *Switch) Buffer(i int) *buffer.Buffer { return s.bufs[i] }

// Config returns the construction parameters.
func (s *Switch) Config() Config { return s.cfg }

// Len is the number of packets currently buffered in the whole switch.
func (s *Switch) Len() int { return s.count }

// Empty reports whether no packets are buffered anywhere in the switch.
func (s *Switch) Empty() bool { return s.count == 0 }

// Reset clears all buffers and arbitration state.
func (s *Switch) Reset() {
	for _, b := range s.bufs {
		b.Reset()
	}
	s.arb.Reset()
	s.count = 0
}

// AdvanceIdle fast-forwards the switch through cycles arbitration rounds
// in which it held no packets, reproducing exactly the arbiter state those
// empty rounds would have produced (the priority pointer advances once per
// round; nothing else changes). The active-set network simulator calls it
// when a switch that sat out of arbitration re-enters the active set —
// typically just after the packet ending the idle span was accepted, so
// the switch may be non-empty at call time. The caller asserts that the
// rounds being replayed themselves held no packets.
func (s *Switch) AdvanceIdle(cycles int64) {
	s.arb.AdvanceIdle(cycles)
}

// BlockProbe reports whether the head packet of queue (in → out) must not
// be transmitted because the downstream cannot take it. A nil probe means
// nothing ever blocks (discarding protocol, or final stage feeding sinks).
type BlockProbe func(out int, p *packet.Packet) bool

// Arbitrate computes this cycle's matching. grants is reused storage
// (pass nil to allocate).
// damqvet:hotpath
func (s *Switch) Arbitrate(probe BlockProbe, grants []arbiter.Grant) []arbiter.Grant {
	for i, b := range s.bufs {
		s.rows[i] = b.HeadMask()
	}
	s.probe = probe
	grants = s.arb.Arbitrate(s.rows, s.reads, (*queues)(s), grants)
	s.probe = nil // do not retain the probe between cycles
	return grants
}

// queues is the switch as the arbiter's per-candidate Queues. It is a
// conversion of *Switch, so handing it over allocates nothing.
type queues Switch

// damqvet:hotpath
func (q *queues) Blocked(in, out int) bool {
	return q.probe != nil && q.probe(out, q.bufs[in].Head(out))
}

// damqvet:hotpath
func (q *queues) Len(in, out int) int { return q.bufs[in].QueueLen(out) }

// PopGrant removes and returns the packet named by a grant from Arbitrate.
// It panics if the grant no longer matches a head packet, which would mean
// the caller mutated buffers between Arbitrate and PopGrant.
// damqvet:hotpath
func (s *Switch) PopGrant(g arbiter.Grant) *packet.Packet {
	p := s.bufs[g.In].Pop(g.Out)
	if p == nil {
		panic(fmt.Sprintf("sw: grant %+v does not match buffer state", g))
	}
	s.count--
	return p
}

// Offer presents packet p (already routed: p.OutPort set) to input port
// in. Under Discarding, a packet that does not fit is dropped and Offer
// reports accepted=false. Under Blocking, Offer also reports false but the
// caller is expected to retain the packet upstream.
// damqvet:hotpath
func (s *Switch) Offer(in int, p *packet.Packet) (accepted bool) {
	if !s.bufs[in].TryAccept(p) {
		if s.m != nil {
			if s.m.OfferRefused != nil {
				s.m.OfferRefused.Inc()
			}
		}
		return false
	}
	s.count++
	return true
}

// CanAcceptAt reports whether input in could take p, routed to output
// out of this switch, right now. Upstream switches use it as their block
// probe under the blocking protocol; p itself is not modified.
// damqvet:hotpath
func (s *Switch) CanAcceptAt(in, out int, p *packet.Packet) bool {
	return s.bufs[in].CanAcceptTo(out, p)
}

// Arbiter exposes the switch's crossbar arbiter for the checkpoint
// codec: its priority pointer and stale counters are the switch's only
// cross-cycle control state outside the buffers.
func (s *Switch) Arbiter() *arbiter.Arbiter { return s.arb }

// Buffers returns the switch's per-input buffer views, for the
// checkpoint codec (under a shared pool all views alias one group).
func (s *Switch) Buffers() []*buffer.Buffer { return s.bufs }

// Resync recomputes the cached switch-wide packet count after the
// buffers have been checkpoint-restored, and checks the restored arbiter
// against them: a stale count on an empty queue is an error.
func (s *Switch) Resync() error {
	n := 0
	for i, b := range s.bufs {
		n += b.Len()
		s.rows[i] = b.HeadMask()
	}
	s.count = n
	return s.arb.CheckStale(s.rows)
}

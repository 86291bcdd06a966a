// Package damq is a library reproduction of Tamir & Frazier,
// "High-Performance Multi-Queue Buffers for VLSI Communication Switches"
// (UCLA CSD-880003 / ISCA 1988) — the paper that introduced the
// dynamically allocated multi-queue (DAMQ) buffer.
//
// The package is a facade over the repository's internals, exposing:
//
//   - the four buffer organizations the paper compares (FIFO, SAMQ, SAFC,
//     DAMQ) as one Buffer type — the paper's slot pool threaded by
//     hardware-style linked lists, under each organization's admission
//     policy and read ports;
//   - exact Markov analysis of 2×2 discarding switches (the paper's
//     Table 2);
//   - a synchronized 64×64 Omega-network simulator with blocking and
//     discarding flow control, smart/dumb arbitration, uniform and
//     hot-spot traffic (Tables 3-6, Figure 3);
//   - a clock-cycle/phase-accurate model of the ComCoBB chip's DAMQ
//     micro-architecture demonstrating 4-cycle virtual cut-through
//     (Table 1);
//   - experiment harnesses that regenerate every table and figure.
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured
// results.
package damq

import (
	"context"
	"fmt"
	"io"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/chipnet"
	"damq/internal/comcobb"
	"damq/internal/eventsim"
	"damq/internal/experiments"
	"damq/internal/fault"
	"damq/internal/markov2x2"
	"damq/internal/netsim"
	"damq/internal/obs"
	"damq/internal/packet"
	"damq/internal/plot"
	"damq/internal/stats"
	"damq/internal/sw"
)

// Config validation -------------------------------------------------------
//
// Every Config in the library carries a Validate() error method, and every
// validation failure wraps exactly one of these sentinels, so callers
// classify errors with errors.Is instead of string matching.
var (
	// ErrBadKind reports an unknown buffer kind (constructor or parser).
	ErrBadKind = cfgerr.ErrBadKind
	// ErrBadCapacity reports a slot capacity that is non-positive or not
	// divisible as the buffer organization requires (SAMQ/SAFC).
	ErrBadCapacity = cfgerr.ErrBadCapacity
	// ErrBadPorts reports a non-positive port or output count.
	ErrBadPorts = cfgerr.ErrBadPorts
	// ErrBadRadix reports an Omega-network radix/width mismatch.
	ErrBadRadix = cfgerr.ErrBadRadix
	// ErrBadLoad reports an offered load outside [0, 1].
	ErrBadLoad = cfgerr.ErrBadLoad
	// ErrBadTraffic reports an invalid traffic specification.
	ErrBadTraffic = cfgerr.ErrBadTraffic
	// ErrBadPolicy reports an unknown arbitration policy.
	ErrBadPolicy = cfgerr.ErrBadPolicy
	// ErrBadProtocol reports an unknown flow-control protocol.
	ErrBadProtocol = cfgerr.ErrBadProtocol
	// ErrBadFaultRate reports a fault probability outside [0, 1].
	ErrBadFaultRate = cfgerr.ErrBadFaultRate
	// ErrBadRetryLimit reports a negative retransmit limit or backoff.
	ErrBadRetryLimit = cfgerr.ErrBadRetryLimit
	// ErrBadWorkers reports an intra-run worker count the network cannot
	// shard to (more workers than switches per stage).
	ErrBadWorkers = cfgerr.ErrBadWorkers
	// ErrBadSharing reports invalid sharing-policy knobs: parameters set
	// for a buffer kind that does not read them, out-of-range values, or
	// a shared pool requested for a kind without pooled storage.
	ErrBadSharing = cfgerr.ErrBadSharing
	// ErrBadCheckpoint reports a corrupted, truncated, or structurally
	// inconsistent checkpoint stream (Restore).
	ErrBadCheckpoint = cfgerr.ErrBadCheckpoint
	// ErrCheckpointVersion reports a checkpoint written by an
	// incompatible format version of this library.
	ErrCheckpointVersion = cfgerr.ErrCheckpointVersion
)

// BufferKind identifies one of the four buffer organizations.
type BufferKind = buffer.Kind

// The four buffer organizations of the paper, in its comparison order.
const (
	FIFO = buffer.FIFO
	SAMQ = buffer.SAMQ
	SAFC = buffer.SAFC
	DAMQ = buffer.DAMQ
	// DAFC is the ablation variant: DAMQ's dynamic pool with SAFC's full
	// read connectivity. Not one of the paper's four designs.
	DAFC = buffer.DAFC
)

// The modern (post-1988) admission policies over DAMQ's pooled storage:
// dynamic thresholds, per-class flexible sharing with reservations, and
// queueing-delay-driven sharing. See internal/buffer and DESIGN.md §"The
// admission/storage split".
const (
	DT     = buffer.DT
	FB     = buffer.FB
	BSHARE = buffer.BSHARE
)

// BufferKinds lists the paper's four kinds.
func BufferKinds() []BufferKind { return buffer.Kinds() }

// ModernBufferKinds lists the 2026 sharing policies (DT, FB, BSHARE).
func ModernBufferKinds() []BufferKind { return buffer.ModernKinds() }

// ParseBufferKind converts a name such as "damq" or "DAMQ" to its kind
// (case-insensitive). Unknown names return an error wrapping ErrBadKind
// that lists the valid names.
func ParseBufferKind(s string) (BufferKind, error) { return buffer.ParseKind(s) }

// BufferSharing tunes the modern admission policies; the zero value means
// defaults (alpha 1.0, 2 classes, delay target 16 cycles). The 1988 kinds
// ignore it, and Validate rejects knobs set on a kind that does not read
// them (ErrBadSharing).
type BufferSharing = buffer.Sharing

// ParseBufferSpec parses a CLI-style buffer spec: a kind name optionally
// followed by sharing knobs, e.g. "damq", "dt:alpha=0.5", or
// "fb:alpha=2,classes=4". Errors wrap ErrBadKind or ErrBadSharing.
func ParseBufferSpec(s string) (BufferKind, BufferSharing, error) {
	cfg, err := buffer.ParseSpec(s)
	if err != nil {
		return 0, BufferSharing{}, err
	}
	return cfg.Kind, cfg.Sharing, nil
}

// Buffer is the long-clock buffer every organization is built as: one
// slot pool under the kind's admission policy and read ports. See
// internal/buffer for semantics. It exposes CheckInvariants for
// structural verification.
type Buffer = buffer.Buffer

// DAMQBuffer is the paper's contribution: per-output FIFO queues threaded
// through a shared slot pool with explicit linked lists and a free list.
// It is a Buffer of kind DAMQ.
type DAMQBuffer = buffer.Buffer

// Packet is the unit of traffic in the long-clock simulators.
type Packet = packet.Packet

// NewBuffer constructs a buffer of the given kind for an n-output switch
// with the given total slot capacity. With WithObserver the buffer's
// accept/reject/pop outcomes count under the buffer.* metrics. With
// WithFaults, slots of a dynamically allocated organization whose
// deterministic failure draw lands on cycle 0 ("stuck at power-on") are
// quarantined out of the free list before the buffer is returned —
// capacity shrinks, structure stays sound.
func NewBuffer(kind BufferKind, outputs, capacity int, opts ...Option) (*Buffer, error) {
	b, err := buffer.New(buffer.Config{Kind: kind, NumOutputs: outputs, Capacity: capacity})
	if err != nil {
		return nil, err
	}
	op := applyOptions(opts)
	if op.faultsSet {
		if err := quarantineStuckAtBirth(b, op.faults); err != nil {
			return nil, err
		}
	}
	if op.observer != nil {
		r := op.observer.Registry()
		b.SetMetrics(&buffer.Metrics{
			Accepted: r.Counter(buffer.MetricAccepted),
			Rejected: r.Counter(buffer.MetricRejected),
			Popped:   r.Counter(buffer.MetricPopped),
		})
	}
	return b, nil
}

// quarantineStuckAtBirth applies a fault config to a standalone buffer:
// slots whose deterministic failure cycle is 0 are taken out of service
// immediately. Only dynamically pooled organizations
// (buffer.KindSharesPool) take slot faults; the others are returned
// unchanged.
func quarantineStuckAtBirth(b *Buffer, fc FaultConfig) error {
	if err := fc.Validate(); err != nil {
		return err
	}
	if !buffer.KindSharesPool(b.Kind()) || fc.SlotStuckRate <= 0 {
		return nil
	}
	inj, err := fault.NewInjector(fc)
	if err != nil {
		return err
	}
	site := fault.BufferSite(0, 0, 0)
	for sl := 0; sl < b.Capacity(); sl++ {
		if inj.SlotFailCycle(site, sl) == 0 {
			b.QuarantineSlot(sl)
		}
	}
	return nil
}

// NewDAMQBuffer constructs a DAMQ buffer directly. It panics, with an
// error wrapping ErrBadPorts or ErrBadCapacity, on an invalid geometry;
// use NewBuffer to get the error back instead.
func NewDAMQBuffer(outputs, capacity int) *DAMQBuffer {
	return buffer.NewDAMQ(outputs, capacity)
}

// ArbitrationPolicy selects the crossbar fairness scheme.
type ArbitrationPolicy = arbiter.Policy

// Arbitration policies (Section 4.2 of the paper).
const (
	DumbArbitration  = arbiter.Dumb
	SmartArbitration = arbiter.Smart
)

// ParseArbitrationPolicy converts "smart" or "dumb" (any case) to a
// policy. Unknown names return an error wrapping ErrBadPolicy.
func ParseArbitrationPolicy(s string) (ArbitrationPolicy, error) { return arbiter.ParsePolicy(s) }

// Protocol is the network flow-control discipline.
type Protocol = sw.Protocol

// Flow-control protocols.
const (
	Discarding = sw.Discarding
	Blocking   = sw.Blocking
)

// ParseProtocol converts "blocking" or "discarding" (any case) to a
// protocol. Unknown names return an error wrapping ErrBadProtocol.
func ParseProtocol(s string) (Protocol, error) { return sw.ParseProtocol(s) }

// Switch is one n×n switch (buffers + crossbar + arbiter).
type Switch = sw.Switch

// SwitchConfig parameterizes a switch. It is owned by this package: the
// previous release re-exported the internal sw.Config directly, which
// let the facade's surface drift with internal refactors; struct
// literals written against the old alias compile unchanged.
type SwitchConfig struct {
	Ports      int // n: number of input ports and of output ports
	BufferKind BufferKind
	Capacity   int // slots per input buffer
	Policy     ArbitrationPolicy
	// SharedPool pools all input ports' storage into one Ports*Capacity
	// slot group. Requires a pooled kind (DAMQ, DAFC, DT, FB, BSHARE).
	SharedPool bool
	// Sharing tunes the modern admission policies (DT/FB/BSHARE).
	Sharing BufferSharing
}

// Validate checks the config; failures wrap the ErrBad* sentinels.
func (cfg SwitchConfig) Validate() error { return cfg.internal().Validate() }

func (cfg SwitchConfig) internal() sw.Config {
	return sw.Config{
		Ports:      cfg.Ports,
		BufferKind: cfg.BufferKind,
		Capacity:   cfg.Capacity,
		Policy:     cfg.Policy,
		SharedPool: cfg.SharedPool,
		Sharing:    cfg.Sharing,
	}
}

// NewSwitch builds one switch. With WithObserver its grant, conflict,
// blocked-head, and refused-offer counts register under the sw.* metrics.
func NewSwitch(cfg SwitchConfig, opts ...Option) (*Switch, error) {
	s, err := sw.New(cfg.internal())
	if err != nil {
		return nil, err
	}
	op := applyOptions(opts)
	if op.observer != nil {
		r := op.observer.Registry()
		s.SetMetrics(&sw.Metrics{
			Grants:       r.Counter(netsim.MetricGrants),
			Conflicts:    r.Counter(netsim.MetricConflicts),
			BlockedHeads: r.Counter(netsim.MetricBlockedHeads),
			OfferRefused: r.Counter(netsim.MetricOfferRefused),
		})
	}
	return s, nil
}

// DiscardProbability solves the paper's Table 2 Markov model exactly: the
// steady-state probability that a packet arriving at a 2×2 discarding
// switch with the given buffer kind and per-port slot count is discarded,
// at the given traffic level.
func DiscardProbability(kind BufferKind, slots int, load float64) (float64, error) {
	r, err := markov2x2.Solve(kind, slots, load)
	if err != nil {
		return 0, err
	}
	return r.PDiscard, nil
}

// Fault injection ----------------------------------------------------------

// FaultConfig parameterizes deterministic fault injection (WithFaults).
// Rates are per-site-per-cycle probabilities; zero rates everywhere mean
// faults are off. Seed 0 derives the fault seed from the simulation seed
// where one exists.
type FaultConfig = fault.Config

// FaultKind identifies one class of injected fault.
type FaultKind = fault.Kind

// The fault classes.
const (
	FaultSlotStuck     = fault.SlotStuck     // buffer slot goes permanently out of service
	FaultWireCorrupt   = fault.WireCorrupt   // single-bit flip on a chip wire byte
	FaultLinkTransient = fault.LinkTransient // network link drops this cycle's packet
	FaultLinkDead      = fault.LinkDead      // network link fails permanently
)

// FaultKinds lists all fault classes.
func FaultKinds() []FaultKind { return fault.Kinds() }

// ParseFaultKind converts a name such as "slot-stuck" (case-insensitive)
// to its kind. Unknown names return an error wrapping ErrBadKind that
// lists the valid names.
func ParseFaultKind(s string) (FaultKind, error) { return fault.ParseKind(s) }

// ParseFaultSpec parses a CLI-style comma-separated fault spec such as
// "slot-stuck=1e-5,link-transient=1e-4,seed=7,retries=4" and validates
// the result — the format behind the CLIs' -faults flag.
func ParseFaultSpec(s string) (FaultConfig, error) { return fault.ParseSpec(s) }

// Network simulation -----------------------------------------------------

// NetworkConfig parameterizes an Omega-network simulation (64×64 of 4×4
// switches by default).
type NetworkConfig = netsim.Config

// TrafficSpec describes the workload of a network simulation.
type TrafficSpec = netsim.TrafficSpec

// Traffic kinds.
const (
	UniformTraffic     = netsim.Uniform
	HotSpotTraffic     = netsim.HotSpot
	PermutationTraffic = netsim.Permutation
)

// NetworkResult aggregates a run's measurements.
type NetworkResult = netsim.Result

// NetworkSim is an instantiated network; use Run or Step.
type NetworkSim = netsim.Sim

// NewNetwork builds an Omega-network simulation. WithSeed overrides
// cfg.Seed; WithObserver attaches per-cycle probes (per-stage occupancy,
// per-queue depth, discard/block causes, latency histograms) whose
// presence does not change the simulated results. WithWorkers shards
// this one run's stepping across cores (see NetworkConfig.Workers);
// results are byte-identical at any worker count, and a sharded Sim
// should be Closed when abandoned to release its worker goroutines.
func NewNetwork(cfg NetworkConfig, opts ...Option) (*NetworkSim, error) {
	op := applyOptions(opts)
	if op.seedSet {
		cfg.Seed = op.seed
	}
	if op.workersSet {
		if op.workers <= 0 {
			cfg.Workers = -1 // option semantics: 0 = GOMAXPROCS
		} else {
			cfg.Workers = op.workers
		}
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	if op.faultsSet {
		if err := sim.SetFaults(op.faults); err != nil {
			sim.Close() // New already started the worker gang
			return nil, err
		}
	}
	if op.observer != nil {
		sim.SetObserver(op.observer)
	}
	return sim, nil
}

// RunNetwork builds and runs a simulation in one call, honoring the same
// options as NewNetwork.
func RunNetwork(cfg NetworkConfig, opts ...Option) (*NetworkResult, error) {
	sim, err := NewNetwork(cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	return sim.Run(), nil
}

// RunNetworkCtx is RunNetwork with cooperative cancellation: on ctx
// cancellation it stops at the next stride boundary and returns the
// partial result (Config.MeasureCycles rewritten to the cycles actually
// measured) together with ctx.Err(), so callers can report interrupted
// runs honestly instead of discarding them.
func RunNetworkCtx(ctx context.Context, cfg NetworkConfig, opts ...Option) (*NetworkResult, error) {
	sim, err := NewNetwork(cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	return sim.RunCtx(ctx)
}

// Checkpoint / restore ----------------------------------------------------

// Checkpoint serializes sim's complete mid-run state — resolved config,
// every buffered packet, arbiter and RNG state, fault-schedule progress,
// and (when observed) instrument values — as a versioned, checksummed
// binary stream. Restoring the stream and continuing produces results
// byte-identical to the uninterrupted run. Cold path: call it between
// cycles (Step returns / Run not in progress), never concurrently with
// stepping.
func Checkpoint(sim *NetworkSim, w io.Writer) error { return sim.Checkpoint(w) }

// Restore rebuilds a simulation from a Checkpoint stream at the exact
// cycle it was captured. WithWorkers overrides the checkpointed worker
// count — the shard partition is a pure function of topology and seed,
// so a checkpoint taken at any worker count restores at any other with
// byte-identical results. WithObserver re-attaches an observer whose
// instruments resume from the checkpointed values. Any other option is
// rejected: the seed, fault schedule, and run length are part of the
// captured state. Corrupted or truncated input yields an error wrapping
// ErrBadCheckpoint (ErrCheckpointVersion for a version mismatch), never
// a panic.
func Restore(r io.Reader, opts ...Option) (*NetworkSim, error) {
	op := applyOptions(opts)
	if op.seedSet || op.faultsSet || op.scaleSet {
		return nil, fmt.Errorf("damq: Restore accepts only WithWorkers and WithObserver: %w", ErrBadCheckpoint)
	}
	var ro netsim.RestoreOpts
	if op.workersSet {
		ro.WorkersSet = true
		if op.workers <= 0 {
			ro.Workers = -1 // option semantics: 0 = GOMAXPROCS
		} else {
			ro.Workers = op.workers
		}
	}
	sim, err := netsim.RestoreSimOpts(r, ro)
	if err != nil {
		return nil, err
	}
	if op.observer != nil {
		sim.SetObserver(op.observer)
	}
	return sim, nil
}

// Observability -----------------------------------------------------------

// Observer collects metrics from the simulations it is attached to (via
// WithObserver): an integer counter/gauge/histogram registry updated
// allocation-free on simulation hot paths, plus an optional per-interval
// time series (SetInterval). One observer should instrument one
// simulation; attaching it never changes simulated results.
type Observer = obs.Observer

// MetricsSnapshot is the stable JSON export shape of an observer's
// registry — what the CLIs write for -metrics.
type MetricsSnapshot = obs.Snapshot

// MetricsHistogram is one exported histogram inside a snapshot.
type MetricsHistogram = obs.HistogramSnapshot

// MetricsInterval is one cumulative point of the optional time series.
type MetricsInterval = obs.IntervalRecord

// NewObserver returns an empty observer ready to pass to WithObserver.
func NewObserver() *Observer { return obs.NewObserver() }

// DecodeMetrics parses a snapshot previously written by
// MetricsSnapshot.Encode (e.g. a -metrics file).
func DecodeMetrics(raw []byte) (*MetricsSnapshot, error) { return obs.DecodeSnapshot(raw) }

// ValidateMetricsJSON checks that raw is a well-formed network metrics
// snapshot: all packet and arbitration counters present, per-stage
// occupancy and level gauges present, and the injection-latency
// histogram total equal to the delivered count.
func ValidateMetricsJSON(raw []byte) error { return netsim.ValidateSnapshotJSON(raw) }

// Chip-level model --------------------------------------------------------

// Chip is the cycle/phase-accurate ComCoBB model (five port pairs around
// a 5×5 crossbar, DAMQ buffers with 8-byte slots).
type Chip = comcobb.Chip

// ChipConfig parameterizes a chip.
type ChipConfig = comcobb.Config

// ChipTrace records cycle/phase events for timing analysis.
type ChipTrace = comcobb.Trace

// Route is a virtual-circuit table entry.
type Route = comcobb.Route

// ChipNetwork ticks multiple connected chips in lockstep.
type ChipNetwork = comcobb.Network

// NewChip builds a chip. WithObserver registers the chip.* cycle, grant,
// and port counters (equivalent to setting cfg.Observer directly), and
// WithFaults arms wire-byte corruption with parity detection and NACK
// (equivalent to setting cfg.Faults). Explicit config fields win over
// options.
func NewChip(cfg ChipConfig, opts ...Option) *Chip {
	op := applyOptions(opts)
	if op.observer != nil && cfg.Observer == nil {
		cfg.Observer = op.observer
	}
	if op.faultsSet && !cfg.Faults.Enabled() {
		cfg.Faults = op.faults
	}
	return comcobb.NewChip(cfg)
}

// ConnectChips wires output port out of chip a to input port in of b.
func ConnectChips(a *Chip, out int, b *Chip, in int) { comcobb.Connect(a, out, b, in) }

// NewChipNetwork groups chips for lockstep ticking.
func NewChipNetwork(chips ...*Chip) *ChipNetwork { return comcobb.NewNetwork(chips...) }

// ChipLink is one unidirectional byte-serial wire between chips (or
// between a testbench driver and a chip).
type ChipLink = comcobb.Link

// ChipDriver feeds scripted packets into a chip link, standing in for an
// upstream node.
type ChipDriver = comcobb.Driver

// NewChipDriver attaches a driver to a link. WithObserver registers the
// driver's retransmit instruments (fault.driver.*); WithFaults applies
// the config's retry policy (SetRetryPolicy spells it out explicitly).
func NewChipDriver(link *ChipLink, opts ...Option) *ChipDriver {
	d := comcobb.NewDriver(link)
	op := applyOptions(opts)
	if op.faultsSet && op.faults.RetryLimit > 0 {
		d.SetRetryPolicy(op.faults.RetryLimit, op.faults.RetryBackoff)
	}
	if op.observer != nil {
		d.ObserveFaults(op.observer)
	}
	return d
}

// DecodedPacket is a packet recovered from a chip output capture.
type DecodedPacket = comcobb.DecodedPacket

// Experiments --------------------------------------------------------------

// ExperimentScale tunes how long experiment simulations run.
type ExperimentScale = experiments.Scale

// Predefined scales.
var (
	FullScale  = experiments.Full
	QuickScale = experiments.Quick
)

// ReproduceTable1 measures chip-level cut-through turn-around (Table 1).
func ReproduceTable1() (*experiments.Table1Result, error) { return experiments.Table1() }

// ReproduceTable2 solves the full Markov table (Table 2), one chain per
// worker goroutine (WithWorkers bounds the count; 0 = GOMAXPROCS).
func ReproduceTable2(opts ...Option) (*experiments.Table2Result, error) {
	return experiments.Table2(nil, applyOptions(opts).workers)
}

// ReproduceTable3 runs the discarding-network experiment (Table 3).
// Options (WithScale, WithSeed, WithWorkers) refine sc; the same applies
// to every Reproduce*/Ablate* runner below.
func ReproduceTable3(sc ExperimentScale, opts ...Option) (*experiments.Table3Result, error) {
	return experiments.Table3(applyOptions(opts).scaleFor(sc))
}

// ReproduceTable4 runs the blocking-network latency table (Table 4).
func ReproduceTable4(sc ExperimentScale, opts ...Option) ([]experiments.LatencyRow, error) {
	return experiments.Table4(applyOptions(opts).scaleFor(sc))
}

// ReproduceTable5 varies slots per buffer for FIFO and DAMQ (Table 5).
func ReproduceTable5(sc ExperimentScale, opts ...Option) ([]experiments.LatencyRow, error) {
	return experiments.Table5(applyOptions(opts).scaleFor(sc))
}

// ReproduceTable6 runs the hot-spot experiment (Table 6).
func ReproduceTable6(sc ExperimentScale, opts ...Option) ([]experiments.Table6Row, error) {
	return experiments.Table6(applyOptions(opts).scaleFor(sc))
}

// Figure3Series is one latency-vs-throughput curve from a load sweep.
type Figure3Series = stats.Series

// Figure3Point is one measurement on a curve.
type Figure3Point = stats.Point

// ReproduceFigure3 sweeps offered load and returns latency/throughput
// series (Figure 3).
func ReproduceFigure3(kinds []BufferKind, capacity int, sc ExperimentScale, opts ...Option) ([]Figure3Series, error) {
	return experiments.Figure3(kinds, capacity, nil, applyOptions(opts).scaleFor(sc))
}

// ModernVariant names one sharing configuration of the 1988-vs-2026
// comparison: a buffer kind, whether the switch's inputs pool their
// storage, and the policy knobs.
type ModernVariant = experiments.ModernVariant

// ReproduceModern reruns the Figure 3 sweep over modern shared-buffer
// admission policies (DT, FB, BSHARE, with and without a switch-wide
// shared pool) against the 1988 DAMQ baseline. nil variants selects the
// default comparison set (experiments.ModernVariants).
func ReproduceModern(variants []ModernVariant, capacity int, sc ExperimentScale, opts ...Option) ([]Figure3Series, error) {
	return experiments.Modern(variants, capacity, nil, applyOptions(opts).scaleFor(sc))
}

// RenderModern formats the 1988-vs-2026 sweep as a summary table plus the
// per-variant curves and ASCII plot.
func RenderModern(series []Figure3Series) string { return experiments.RenderModern(series) }

// ReproduceVarLen runs the paper's variable-length-packet outlook as an
// experiment: fixed 1-slot vs uniform 1-4-slot packets at equal storage.
func ReproduceVarLen(sc ExperimentScale, opts ...Option) ([]experiments.VarLenRow, error) {
	return experiments.VarLen(applyOptions(opts).scaleFor(sc))
}

// ReproduceAsync runs the asynchronous event-driven network experiment
// (the paper's closing conjecture: variable-length packets arriving
// asynchronously).
func ReproduceAsync(sc ExperimentScale, opts ...Option) ([]experiments.AsyncRow, error) {
	return experiments.Async(applyOptions(opts).scaleFor(sc))
}

// ReproduceFaultCurve sweeps injected link-fault rates on the discarding
// network and reports each buffer kind's graceful-degradation curve
// (delivered throughput, faulted-discard percentage, quarantined slots).
// nil kinds defaults to FIFO vs DAMQ, nil rates to the standard sweep.
func ReproduceFaultCurve(kinds []BufferKind, rates []float64, sc ExperimentScale, opts ...Option) ([]experiments.FaultCurveRow, error) {
	return experiments.FaultCurve(kinds, rates, applyOptions(opts).scaleFor(sc))
}

// AblateConnectivity quantifies what full read connectivity buys on top
// of dynamic allocation (the DAFC variant).
func AblateConnectivity(sc ExperimentScale, opts ...Option) ([]experiments.ConnectivityRow, error) {
	return experiments.AblationConnectivity(applyOptions(opts).scaleFor(sc))
}

// AblateArbitration compares smart vs dumb round-robin arbitration.
func AblateArbitration(sc ExperimentScale, opts ...Option) ([]experiments.ArbitrationRow, error) {
	return experiments.AblationArbitration(applyOptions(opts).scaleFor(sc))
}

// AblateBurstiness compares independent packets against multi-packet
// message traffic at equal offered load.
func AblateBurstiness(sc ExperimentScale, opts ...Option) ([]experiments.BurstRow, error) {
	return experiments.AblationBurstiness(applyOptions(opts).scaleFor(sc))
}

// AsyncNetworkConfig parameterizes the asynchronous event-driven
// simulator directly.
type AsyncNetworkConfig = eventsim.Config

// AsyncNetworkResult aggregates an asynchronous run.
type AsyncNetworkResult = eventsim.Result

// RunAsyncNetwork builds and runs an asynchronous network simulation.
func RunAsyncNetwork(cfg AsyncNetworkConfig) (*AsyncNetworkResult, error) {
	sim, err := eventsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(), nil
}

// ChipOmegaNetwork is an Omega network built from cycle-accurate ComCoBB
// chips (byte-level simulation; for validation, not capacity planning).
type ChipOmegaNetwork = chipnet.Network

// ChipOmegaConfig parameterizes a chip-level network.
type ChipOmegaConfig = chipnet.Config

// NewChipOmegaNetwork builds an Omega network of ComCoBB chips.
func NewChipOmegaNetwork(cfg ChipOmegaConfig) (*ChipOmegaNetwork, error) {
	return chipnet.New(cfg)
}

// RenderFigure3 formats series as a text table plus an ASCII plot.
func RenderFigure3(series []Figure3Series) string { return experiments.RenderFigure3(series) }

// RenderFigure3SVG renders series as a standalone SVG figure.
func RenderFigure3SVG(series []Figure3Series, title string) string {
	return plot.SVG(series, plot.Options{Title: title})
}

// BurstyTraffic generates multi-packet messages (geometric length, one
// destination per message) — the workload shape of the ComCoBB's
// message/virtual-circuit design.
const BurstyTraffic = netsim.Bursty

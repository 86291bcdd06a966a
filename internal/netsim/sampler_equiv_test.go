package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"damq/internal/buffer"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/sw"
)

// The reference sampler: the per-queue sweeps the observer ran before it
// skipped idle switches and read pool registers, kept verbatim apart
// from taking its instruments as an argument. TestSamplerMatchesReference
// holds the production sampler to it.

func refSampleMetrics(s *Sim, m *netMetrics, backlog int64) {
	inFlight := s.InFlight()
	for st := range s.stages {
		total := int64(0)
		for _, swc := range s.stages[st] {
			total += int64(swc.Len())
			ports := swc.Ports()
			for in := 0; in < ports; in++ {
				b := swc.Buffer(in)
				for out := 0; out < ports; out++ {
					m.queueDepth.Observe(int64(b.QueueLen(out)))
				}
			}
		}
		m.stageOcc[st].Set(total)
	}
	m.inFlight.Set(inFlight)
	m.backlog.Set(backlog)
	if m.poolSlots != nil {
		refSamplePoolSlots(s, m)
	}
}

type refSlotCounter interface{ QueueSlots(out int) int }

func refSamplePoolSlots(s *Sim, m *netMetrics) {
	shared := s.cfg.SharedPool
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			ports := swc.Ports()
			used := 0
			for in := 0; in < ports; in++ {
				sc, ok := any(swc.Buffer(in)).(refSlotCounter)
				if !ok {
					return // non-pooled kind: nothing to sample
				}
				for out := 0; out < ports; out++ {
					used += sc.QueueSlots(out)
				}
				if !shared {
					m.poolSlots.Observe(int64(used))
					used = 0
				}
			}
			if shared {
				m.poolSlots.Observe(int64(used))
			}
		}
	}
}

// refInstruments registers, on a fresh observer, the instruments the
// samplers write, with the shapes SetObserver gives them.
func refInstruments(s *Sim, prod *netMetrics) (*obs.Observer, *netMetrics) {
	o := obs.NewObserver()
	r := o.Registry()
	m := &netMetrics{
		inFlight:   r.Gauge(MetricInFlight),
		backlog:    r.Gauge(MetricSourceBacklog),
		queueDepth: r.Histogram(MetricQueueDepth, s.cfg.Capacity+1, 1),
	}
	for st := range s.stages {
		m.stageOcc = append(m.stageOcc, r.Gauge(StageOccupancyMetric(st)))
	}
	if prod.poolSlots != nil {
		m.poolSlots = r.Histogram(MetricPoolSlotsUsed, len(prod.poolSlots.Buckets()), 1)
	}
	return o, m
}

// sampledJSON encodes the part of a snapshot the samplers write: the
// level gauges and the depth and pool-occupancy histograms.
func sampledJSON(t *testing.T, o *obs.Observer) []byte {
	t.Helper()
	full := o.Snapshot()
	part := &obs.Snapshot{Gauges: full.Gauges, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, name := range []string{MetricQueueDepth, MetricPoolSlotsUsed} {
		if h, ok := full.Histograms[name]; ok {
			part.Histograms[name] = h
		}
	}
	raw, err := part.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSamplerMatchesReference compares, after every measured cycle, the
// sampled part of the snapshot with the reference sampler's, for every
// buffer kind per port and, where the kind may share, as a shared pool,
// each with and without stuck-slot faults. The fault runs must sample
// pools while a quarantine is pending (the slot still holds its packet)
// and after one has completed.
func TestSamplerMatchesReference(t *testing.T) {
	for _, kind := range buffer.AllKinds() {
		for _, shared := range []bool{false, true} {
			if shared && !buffer.KindSharesPool(kind) {
				continue
			}
			for _, faults := range []bool{false, true} {
				if faults && !buffer.KindSharesPool(kind) {
					continue // stuck slots only strike pooled kinds
				}
				name := fmt.Sprintf("%v/shared=%v/faults=%v", kind, shared, faults)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Radix: 4, Inputs: 16, Capacity: 4, BufferKind: kind,
						Protocol: sw.Blocking, SharedPool: shared,
						Traffic:      TrafficSpec{Kind: HotSpot, Load: 0.8, HotFraction: 0.3},
						WarmupCycles: 20, MeasureCycles: 400, Seed: 5,
					}
					if kind == buffer.SAMQ || kind == buffer.SAFC {
						cfg.Capacity = 8
					}
					if shared {
						cfg.Protocol = sw.Discarding
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if faults {
						if err := s.SetFaults(fault.Config{Seed: 9, SlotStuckRate: 4e-4}); err != nil {
							t.Fatal(err)
						}
					}
					o := obs.NewObserver()
					s.SetObserver(o)
					refObs, ref := refInstruments(s, s.metrics)
					for s.cycle < cfg.WarmupCycles {
						s.Step(false)
					}
					sawPending, sawDone := false, false
					for c := int64(0); c < cfg.MeasureCycles; c++ {
						s.Step(true)
						refSampleMetrics(s, ref, s.SourceBacklogLen())
						got, want := sampledJSON(t, o), sampledJSON(t, refObs)
						if !bytes.Equal(got, want) {
							t.Fatalf("measured cycle %d: sampler snapshot\n%s\nreference\n%s", c, got, want)
						}
						if faults {
							done := completedQuarantines(s)
							sawDone = sawDone || done > 0
							sawPending = sawPending || s.QuarantinedSlots() > done
						}
					}
					if faults && (!sawPending || !sawDone) {
						t.Fatalf("fault run sampled pending quarantine %v, completed quarantine %v; want both",
							sawPending, sawDone)
					}
				})
			}
		}
	}
}

// completedQuarantines counts slots fully out of service across the
// network; QuarantinedSlots less this is the slots still serving a
// packet while their quarantine is pending.
func completedQuarantines(s *Sim) int64 {
	var n int64
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			for in := 0; in < swc.Ports(); in++ {
				n += int64(swc.Buffer(in).Quarantined())
			}
		}
	}
	return n
}

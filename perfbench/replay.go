package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"damq"
)

// replayStats is the mean host time of one call of each switch operation.
type replayStats struct {
	offerNs, arbitrateNs, popGrantNs float64
}

// replaySwitch drives one facade switch, built like the workload's
// switches, with the workload's own traffic for the given number of
// cycles. Each cycle every input draws a Bernoulli(load) arrival (a
// hot-spot workload sends HotFraction of them to output 0); the arrivals
// are offered and, when the switch holds packets, it arbitrates and every
// grant is popped (the network skips idle switches the same way). A refused
// packet is dropped under the discarding protocol and offered again next
// cycle under blocking. Calls of one kind are timed as one batch per
// cycle, and the clock's own cost, measured first, is taken off each
// batch.
func replaySwitch(w *workload, seed uint64, cycles int, tr *tracer, root int32) (replayStats, error) {
	s, err := damq.NewSwitch(w.switchConfig())
	if err != nil {
		return replayStats{}, fmt.Errorf("%s: NewSwitch: %w", w.name, err)
	}
	src := rand.New(rand.NewPCG(seed, 0x7265706c6179)) // "replay"
	n := w.cfg.Radix
	load := w.cfg.Traffic.Load
	hot := 0.0
	if w.cfg.Traffic.Kind == damq.HotSpotTraffic {
		hot = w.cfg.Traffic.HotFraction
	}
	blocking := w.cfg.Protocol == damq.Blocking

	// A packet pool large enough for every buffered and pending packet.
	free := make([]*damq.Packet, 0, n*(w.cfg.Capacity+1))
	for i := 0; i < cap(free); i++ {
		free = append(free, &damq.Packet{})
	}
	pending := make([]*damq.Packet, n)
	grants := s.Arbitrate(nil, nil)

	clock := clockCost()
	var offerT, arbT, popT time.Duration
	var offers, arbs, pops int
	for c := 0; c < cycles; c++ {
		for in := 0; in < n; in++ {
			if pending[in] != nil || src.Float64() >= load {
				continue
			}
			p := free[len(free)-1]
			free = free[:len(free)-1]
			out := src.IntN(n)
			if hot > 0 && src.Float64() < hot {
				out = 0
			}
			*p = damq.Packet{ID: uint64(c*n + in), Source: in, Dest: out, Slots: 1, Born: int64(c), Injected: int64(c), OutPort: out}
			pending[in] = p
		}

		if k := len(pending) - countNil(pending); k > 0 {
			id := tr.begin("Switch.Offer", root)
			t := time.Now()
			for in, p := range pending {
				if p == nil {
					continue
				}
				if s.Offer(in, p) {
					pending[in] = nil
				} else if !blocking {
					free = append(free, p)
					pending[in] = nil
				}
			}
			offerT += time.Since(t) - clock
			tr.end(id, k)
			offers += k
		}

		if s.Len() > 0 {
			id := tr.begin("Switch.Arbitrate", root)
			t := time.Now()
			grants = s.Arbitrate(nil, grants[:0])
			arbT += time.Since(t) - clock
			tr.end(id, 1)
			arbs++

			id = tr.begin("Switch.PopGrant", root)
			t = time.Now()
			for _, g := range grants {
				free = append(free, s.PopGrant(g))
			}
			popT += time.Since(t) - clock
			tr.end(id, len(grants))
			pops += len(grants)
		}
		s.Tick()
	}
	per := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(d) / float64(calls)
	}
	return replayStats{per(offerT, offers), per(arbT, arbs), per(popT, pops)}, nil
}

// clockCost is the median reading of an empty timed interval: what the
// clock itself adds to every timed batch.
func clockCost() time.Duration {
	xs := make([]float64, 1001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return time.Duration(median(xs))
}

func countNil(ps []*damq.Packet) int {
	n := 0
	for _, p := range ps {
		if p == nil {
			n++
		}
	}
	return n
}

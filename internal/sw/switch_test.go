package sw

import (
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/packet"
	"damq/internal/rng"
)

func cfg(kind buffer.Kind) Config {
	return Config{Ports: 4, BufferKind: kind, Capacity: 4, Policy: arbiter.Smart}
}

func routed(id uint64, dest int) *packet.Packet {
	return &packet.Packet{ID: id, Dest: dest, OutPort: dest, Slots: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ports: 0, BufferKind: buffer.FIFO, Capacity: 4}); err == nil {
		t.Fatal("accepted zero ports")
	}
	if _, err := New(Config{Ports: 4, BufferKind: buffer.SAMQ, Capacity: 5}); err == nil {
		t.Fatal("accepted SAMQ with indivisible capacity")
	}
}

func TestProtocolString(t *testing.T) {
	if Discarding.String() != "discarding" || Blocking.String() != "blocking" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Fatal("unknown protocol name wrong")
	}
}

func TestOfferAndForward(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		p := routed(1, 3)
		if !s.Offer(0, p) {
			t.Fatalf("%v: offer rejected on empty switch", kind)
		}
		if s.Len() != 1 {
			t.Fatalf("%v: len = %d", kind, s.Len())
		}
		grants := s.Arbitrate(nil, nil)
		if len(grants) != 1 || grants[0].In != 0 || grants[0].Out != 3 {
			t.Fatalf("%v: grants = %v", kind, grants)
		}
		if got := s.PopGrant(grants[0]); got != p {
			t.Fatalf("%v: popped %v", kind, got)
		}
		if s.Len() != 0 {
			t.Fatalf("%v: switch not empty after pop", kind)
		}
	}
}

func TestOfferFullDiscards(t *testing.T) {
	s := MustNew(Config{Ports: 2, BufferKind: buffer.FIFO, Capacity: 2, Policy: arbiter.Dumb})
	if !s.Offer(0, routed(1, 0)) || !s.Offer(0, routed(2, 0)) {
		t.Fatal("setup offers rejected")
	}
	if s.Offer(0, routed(3, 1)) {
		t.Fatal("offer accepted into full buffer")
	}
}

func TestBlockProbeStopsTransmission(t *testing.T) {
	s := MustNew(cfg(buffer.DAMQ))
	s.Offer(0, routed(1, 2))
	blockAll := func(out int, p *packet.Packet) bool { return true }
	if grants := s.Arbitrate(blockAll, nil); len(grants) != 0 {
		t.Fatalf("grants through a blocking probe: %v", grants)
	}
	// And with a selective probe only the free output transmits.
	s.Offer(0, routed(2, 1))
	probe := func(out int, p *packet.Packet) bool { return out == 2 }
	grants := s.Arbitrate(probe, nil)
	if len(grants) != 1 || grants[0].Out != 1 {
		t.Fatalf("grants = %v, want only output 1", grants)
	}
}

func TestCanAcceptAt(t *testing.T) {
	s := MustNew(Config{Ports: 2, BufferKind: buffer.SAMQ, Capacity: 2, Policy: arbiter.Dumb})
	if !s.CanAcceptAt(0, 0, routed(1, 0)) {
		t.Fatal("empty switch refuses packet")
	}
	s.Offer(0, routed(1, 0))
	if s.CanAcceptAt(0, 0, routed(2, 0)) {
		t.Fatal("SAMQ 1-slot queue accepted second packet")
	}
	if !s.CanAcceptAt(0, 1, routed(3, 1)) {
		t.Fatal("SAMQ refused packet for the empty queue")
	}
	// The output argument, not p.OutPort, picks the queue.
	if !s.CanAcceptAt(0, 1, routed(4, 0)) || s.CanAcceptAt(0, 0, routed(5, 1)) {
		t.Fatal("CanAcceptAt routed by p.OutPort instead of its out argument")
	}
}

func TestReset(t *testing.T) {
	s := MustNew(cfg(buffer.DAMQ))
	s.Offer(0, routed(1, 1))
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset did not empty switch")
	}
}

func TestPopGrantPanicsOnStaleGrant(t *testing.T) {
	s := MustNew(cfg(buffer.FIFO))
	s.Offer(0, routed(1, 1))
	grants := s.Arbitrate(nil, nil)
	s.PopGrant(grants[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on stale grant")
		}
	}()
	s.PopGrant(grants[0])
}

// TestMCConservation: arrivals = delivered + discarded + still buffered.
func TestMCConservation(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		res := s.RunDiscarding(0.8, 5000, rng.New(1))
		inside := int64(s.Len())
		if res.Arrivals != res.Delivered+res.Discarded+inside {
			t.Fatalf("%v: %d arrivals != %d delivered + %d discarded + %d inside",
				kind, res.Arrivals, res.Delivered, res.Discarded, inside)
		}
	}
}

func TestMCDeterminism(t *testing.T) {
	a := MustNew(cfg(buffer.DAMQ)).RunDiscarding(0.7, 2000, rng.New(5))
	b := MustNew(cfg(buffer.DAMQ)).RunDiscarding(0.7, 2000, rng.New(5))
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestMCOrderingMatchesPaper: at heavy load with equal storage, the
// discard ranking must be DAMQ < SAFC <= SAMQ < FIFO (Table 2's ordering).
func TestMCOrderingMatchesPaper(t *testing.T) {
	frac := map[buffer.Kind]float64{}
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		frac[kind] = s.RunDiscarding(0.9, 200000, rng.New(7)).DiscardFraction()
	}
	if !(frac[buffer.DAMQ] < frac[buffer.SAFC]) {
		t.Errorf("DAMQ %.4f !< SAFC %.4f", frac[buffer.DAMQ], frac[buffer.SAFC])
	}
	if !(frac[buffer.SAFC] <= frac[buffer.SAMQ]+0.01) {
		t.Errorf("SAFC %.4f !<= SAMQ %.4f", frac[buffer.SAFC], frac[buffer.SAMQ])
	}
	if !(frac[buffer.DAMQ] < frac[buffer.FIFO]) {
		t.Errorf("DAMQ %.4f !< FIFO %.4f", frac[buffer.DAMQ], frac[buffer.FIFO])
	}
}

func TestMCZeroLoad(t *testing.T) {
	s := MustNew(cfg(buffer.FIFO))
	res := s.RunDiscarding(0, 100, rng.New(1))
	if res.Arrivals != 0 || res.Discarded != 0 || res.Delivered != 0 {
		t.Fatalf("zero-load run moved packets: %+v", res)
	}
	if res.DiscardFraction() != 0 {
		t.Fatal("discard fraction of empty run should be 0")
	}
}

// TestTickAdvancesClockOnce: Tick advances every age-reading pool by
// exactly one tick, per input port or, under a shared pool, the one
// group clock all inputs read.
func TestTickAdvancesClockOnce(t *testing.T) {
	for _, shared := range []bool{false, true} {
		s := MustNew(Config{Ports: 4, BufferKind: buffer.BSHARE, Capacity: 4, SharedPool: shared})
		for i := 0; i < 3; i++ {
			s.Tick()
		}
		for in := 0; in < s.Ports(); in++ {
			sp := s.Buffer(in).Pool()
			if now := sp.Now(); now != 3 {
				t.Errorf("shared=%v input %d: pool clock %d after 3 ticks, want 3", shared, in, now)
			}
		}
	}
}

package buffer

import (
	"damq/internal/obs"
	"damq/internal/packet"
)

// Metric names the facade registers for an observed standalone buffer.
const (
	MetricAccepted = "buffer.accepted"
	MetricRejected = "buffer.rejected"
	MetricPopped   = "buffer.popped"
)

// Metrics is the instrument set an observed buffer maintains. Fields
// may be nil individually; every probe is nil-guarded, matching the
// zero-cost-off convention damqvet polices.
type Metrics struct {
	// Accepted counts packets stored by Accept.
	Accepted *obs.Counter
	// Rejected counts Accept calls that failed (full buffer or bad port).
	Rejected *obs.Counter
	// Popped counts packets removed by Pop.
	Popped *obs.Counter
}

// Instrumented decorates a Buffer with acceptance/rejection/drain
// counters. It is what the facade's NewBuffer returns when a
// damq.WithObserver option is present; all other Buffer methods
// delegate untouched.
type Instrumented struct {
	Buffer
	m *Metrics
}

// Instrument wraps b. A nil or empty metrics set is legal and makes the
// wrapper transparent.
func Instrument(b Buffer, m *Metrics) *Instrumented {
	return &Instrumented{Buffer: b, m: m}
}

// Accept stores p and counts the outcome.
func (b *Instrumented) Accept(p *packet.Packet) error {
	err := b.Buffer.Accept(p)
	if b.m != nil {
		if err != nil {
			if b.m.Rejected != nil {
				b.m.Rejected.Inc()
			}
		} else if b.m.Accepted != nil {
			b.m.Accepted.Inc()
		}
	}
	return err
}

// TryAccept stores p if it is admitted and counts the outcome.
func (b *Instrumented) TryAccept(p *packet.Packet) bool {
	ok := b.Buffer.TryAccept(p)
	if b.m != nil {
		if !ok {
			if b.m.Rejected != nil {
				b.m.Rejected.Inc()
			}
		} else if b.m.Accepted != nil {
			b.m.Accepted.Inc()
		}
	}
	return ok
}

// Pop removes and returns Head(out), counting successful drains.
func (b *Instrumented) Pop(out int) *packet.Packet {
	p := b.Buffer.Pop(out)
	if p != nil && b.m != nil {
		if b.m.Popped != nil {
			b.m.Popped.Inc()
		}
	}
	return p
}

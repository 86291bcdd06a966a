package buffer

import "damq/internal/obs"

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
	// Accepted counts packets stored by TryAccept or Accept.
	Accepted *obs.Counter
	// Rejected counts TryAccept and Accept calls that failed (full
	// buffer, bad port, or policy refusal).
	Rejected *obs.Counter
	// Popped counts packets removed by Pop.
	Popped *obs.Counter
}

// SetMetrics attaches (nil detaches) the buffer's instrument set:
// TryAccept, and Accept through it, count accepted and rejected packets,
// and Pop counts drains. The facade's NewBuffer attaches one when a
// damq.WithObserver option is present. Cold path.
func (b *Buffer) SetMetrics(m *Metrics) { b.m = m }

// Package arbiter implements the central crossbar arbiter of a switch,
// with the two arbitration policies the paper simulates (Section 4.2):
//
//   - Dumb: buffers are examined one at a time in round-robin priority
//     order; each cycle the priority pointer advances to the next buffer
//     regardless of whether the previous priority holder transmitted.
//   - Smart: the priority pointer advances only when the buffer that held
//     priority actually transmitted a packet — a turn is not "counted"
//     when every queue in the buffer was blocked. Additionally a stale
//     count per queue tracks how long a queue has held packets without
//     transmitting, and queue selection within a buffer prefers the
//     stalest queue (ties broken by longest queue), maintaining fairness
//     within the buffer.
//
// When examining a buffer the arbiter transmits from the longest eligible
// (non-blocked, output-still-free) queue. A buffer with a single read port
// (FIFO, SAMQ, DAMQ) gets at most one grant per cycle; an SAFC buffer may
// receive up to one grant per queue.
//
// The arbiter works on bitmasks, as the hardware's does on its queues'
// valid bits. The switch hands it one request row per input buffer, bit
// out set iff that buffer can deliver to out, and the matching runs as
// bit operations on the rows and a taken-outputs word. Only candidates
// (occupied queues whose output is still free) reach the switch through
// Queues: once for the downstream blocking probe, and for queue lengths
// only when two candidates' stale counts tie. One routine serves every
// port count, read-port limit and observed or unobserved arbiter.
package arbiter

import (
	"fmt"
	"math/bits"

	"damq/internal/cfgerr"
	"damq/internal/names"
	"damq/internal/obs"
)

// Policy selects the fairness scheme.
type Policy int

const (
	// Dumb advances buffer priority round-robin unconditionally.
	Dumb Policy = iota
	// Smart advances priority only on successful transmission and applies
	// per-queue stale counts.
	Smart
)

// String names the policy as in the paper's tables.
func (p Policy) String() string {
	switch p {
	case Dumb:
		return "dumb"
	case Smart:
		return "smart"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// policyNames lists the policies in enum order for the shared parser.
var policyNames = [...]string{"dumb", "smart"}

// ParsePolicy converts "dumb" or "smart" (any case) to a Policy. The
// error wraps cfgerr.ErrBadPolicy.
func ParsePolicy(s string) (Policy, error) {
	if i := names.Index(s, policyNames[:]); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("arbiter: unknown policy %q (want %s): %w",
		s, names.List(policyNames[:]), cfgerr.ErrBadPolicy)
}

// Queues answers the two questions a matching asks about a candidate
// queue, a set bit of its input's row whose output no earlier grant
// took. It is never asked about an empty queue or a taken output, so its
// cost follows the candidates, not inputs × outputs.
type Queues interface {
	// Blocked reports whether the head packet of (in, out) cannot be
	// forwarded because the downstream buffer refuses it.
	Blocked(in, out int) bool
	// Len is the packet count of queue (in, out). The matching reads it
	// only to order two candidates whose stale counts tie.
	Len(in, out int) int
}

// Grant is one crossbar connection for the current cycle.
type Grant struct {
	In  int
	Out int
}

// Arbiter holds the priority pointer and stale counts across cycles.
type Arbiter struct {
	policy  Policy
	inputs  int
	outputs int
	prio    int
	stale   []int64 // [in*outputs + out] cycles the queue has waited with traffic

	// Observability probes (nil when no observer is attached). Every use
	// sits behind an `if x != nil` guard so the unobserved arbiter stays
	// branch-predictable, allocation-free, and bit-identical.
	mGrants    *obs.Counter // crossbar connections granted
	mConflicts *obs.Counter // occupied queues that lost because the output was taken
	mBlocked   *obs.Counter // queue heads refused by the downstream buffer
}

// New constructs an arbiter for a switch with the given port counts. A
// request row is one 64-bit word, so there are at most 64 outputs.
func New(policy Policy, inputs, outputs int) *Arbiter {
	if inputs <= 0 || outputs <= 0 || outputs > 64 {
		panic(fmt.Sprintf("arbiter: %d×%d ports, want positive with at most 64 outputs", inputs, outputs))
	}
	return &Arbiter{policy: policy, inputs: inputs, outputs: outputs, stale: make([]int64, inputs*outputs)}
}

// Policy returns the arbitration policy in use.
func (a *Arbiter) Policy() Policy { return a.policy }

// SetMetrics attaches (or, with nils, detaches) the grant/conflict/
// blocked-head counters. Cold path: call before simulation starts.
func (a *Arbiter) SetMetrics(grants, conflicts, blocked *obs.Counter) {
	a.mGrants = grants
	a.mConflicts = conflicts
	a.mBlocked = blocked
}

// AdvanceIdle fast-forwards the arbiter through cycles rounds in which
// every queue was empty, producing exactly the state Arbitrate would have
// left behind. An empty round mutates only the priority pointer: under
// Dumb it advances unconditionally, and under Smart an empty priority
// holder forfeits its turn (no grants, so the pointer falls through to the
// round-robin default); stale counts of empty queues are already zero and
// stay zero. Network simulators use this to skip arbitration of empty
// switches without perturbing later arbitration decisions.
// damqvet:hotpath
func (a *Arbiter) AdvanceIdle(cycles int64) {
	if cycles <= 0 {
		return
	}
	a.prio = int((int64(a.prio) + cycles) % int64(a.inputs))
}

// Stale exposes the stale counter of queue (in, out) for tests.
func (a *Arbiter) Stale(in, out int) int64 { return a.stale[in*a.outputs+out] }

// Reset clears priority and stale state.
func (a *Arbiter) Reset() {
	a.prio = 0
	clear(a.stale)
}

// Arbitrate computes this cycle's crossbar matching. rows[in] is input
// in's request row: bit out is set iff queue (in, out) holds a packet
// deliverable to out (a FIFO sets only its head packet's output). reads
// is the read-port limit of every input buffer (1, or the output count
// for SAFC/DAFC). Arbitrate appends grants to dst (pass nil to allocate)
// in examination order, which tests rely on.
//
// Inputs are examined from the priority holder on. Each read round of a
// row walks the candidate bits row &^ taken in ascending output order,
// asks q whether each candidate is blocked downstream, and grants the
// best unblocked one: stalest first under Smart, then longest queue,
// ties to the lower output. Rows without traffic are skipped whole:
// their stale counts are zero and stay zero (a queue only carries a
// nonzero count while it holds traffic, and the pop that empties it is
// a grant, which resets the count). The same matching serves every
// shape, counted or not; attached counters only add popcounts and
// increments, never probes.
// damqvet:hotpath
func (a *Arbiter) Arbitrate(rows []uint64, reads int, q Queues, dst []Grant) []Grant {
	if len(rows) != a.inputs {
		panic(fmt.Sprintf("arbiter: %d request rows for %d inputs", len(rows), a.inputs))
	}
	var taken uint64 // outputs granted this cycle
	first := -1      // first input served, in examination order
	n := a.outputs
	for k := 0; k < a.inputs; k++ {
		i := a.prio + k
		if i >= a.inputs {
			i -= a.inputs
		}
		row := rows[i]
		if row == 0 {
			continue
		}
		stale := a.stale[i*n : i*n+n]
		var sent uint64 // outputs this row was granted
		for r := 0; r < reads; r++ {
			if a.mConflicts != nil {
				a.mConflicts.Add(int64(bits.OnesCount64(row & taken)))
			}
			best, bestLen := -1, -1 // bestLen is read lazily, -1 until needed
			for c := row &^ taken; c != 0; c &= c - 1 {
				o := bits.TrailingZeros64(c)
				if q.Blocked(i, o) {
					if a.mBlocked != nil {
						a.mBlocked.Inc()
					}
					continue
				}
				if best < 0 {
					best = o
					continue
				}
				if a.policy == Smart && stale[o] != stale[best] {
					if stale[o] > stale[best] {
						best, bestLen = o, -1
					}
					continue
				}
				if bestLen < 0 {
					bestLen = q.Len(i, best)
				}
				if l := q.Len(i, o); l > bestLen {
					best, bestLen = o, l
				}
			}
			if best < 0 {
				break
			}
			taken |= 1 << uint(best)
			sent |= 1 << uint(best)
			if first < 0 {
				first = i
			}
			dst = append(dst, Grant{In: i, Out: best})
			if a.mGrants != nil {
				a.mGrants.Inc()
			}
		}
		// This row's stale counts are final once its examination ends,
		// since later rows cannot grant to it: queues holding traffic
		// that did not transmit age by one; transmitting or empty queues
		// reset. (A queue that sent one of several waiting packets still
		// made progress, so it resets.)
		waiting := row &^ sent
		for o := range stale {
			keep := -int64(waiting >> uint(o) & 1) // all ones iff waiting
			stale[o] = (stale[o] + 1) & keep
		}
	}

	// Advance the priority pointer. Under Smart a priority holder whose
	// packets were all blocked keeps its turn ("does not count the times
	// a buffer has priority but still does not transmit"). That rule is
	// only about buffers that held traffic: an empty holder forfeits, and
	// the pointer rotates to just past the first buffer actually served,
	// so quiet inputs cannot pin the examination order and starve later
	// buffers. The holder is examined first, so it transmitted iff it is
	// the first input served.
	next := a.prio
	switch {
	case a.policy == Smart && rows[a.prio] != 0 && first != a.prio:
		return dst // blocked with traffic: turn not counted, priority retained
	case a.policy == Smart && first >= 0:
		next = first
	}
	if next++; next == a.inputs {
		next = 0
	}
	a.prio = next
	return dst
}

// State is the arbiter's cross-cycle state — the round-robin priority
// pointer and the stale (age) counters — exposed for the simulator
// checkpoint codec. Everything else in an Arbiter is configuration and
// observability probes.
type State struct {
	Prio  int
	Stale []int64 // [in*outputs + out], row-major
}

// SaveState captures the cross-cycle state.
func (a *Arbiter) SaveState() State {
	return State{Prio: a.prio, Stale: append([]int64(nil), a.stale...)}
}

// CheckStale verifies the invariant Arbitrate's row skipping rests on: a
// queue whose request-row bit is clear has stale count zero. A restored
// state that breaks it could not have come from a run, so the restore
// path rejects it rather than let it age a queue the run never saw.
func (a *Arbiter) CheckStale(rows []uint64) error {
	for i, row := range rows {
		for o := 0; o < a.outputs; o++ {
			if v := a.stale[i*a.outputs+o]; v != 0 && row>>uint(o)&1 == 0 {
				return fmt.Errorf("arbiter: empty queue (%d, %d) has stale count %d", i, o, v)
			}
		}
	}
	return nil
}

// LoadState overwrites the cross-cycle state with a previously saved
// one, validating its shape against the arbiter's port counts.
func (a *Arbiter) LoadState(st State) error {
	if st.Prio < 0 || st.Prio >= a.inputs {
		return fmt.Errorf("arbiter: priority %d out of range [0, %d)", st.Prio, a.inputs)
	}
	if len(st.Stale) != a.inputs*a.outputs {
		return fmt.Errorf("arbiter: %d stale counters for a %d×%d switch", len(st.Stale), a.inputs, a.outputs)
	}
	for _, v := range st.Stale {
		if v < 0 {
			return fmt.Errorf("arbiter: negative stale count %d", v)
		}
	}
	a.prio = st.Prio
	copy(a.stale, st.Stale)
	return nil
}

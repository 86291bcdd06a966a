package arbiter

import (
	"fmt"

	"damq/internal/obs"
)

// This file keeps the arbiter as it was before mask arbitration, as the
// reference TestArbitrateMatchesReference compares the mask routine
// with: the per-(input, output) View it read, the general scan, and the
// branchless 2×2 path its Arbitrate dispatched to. The code is the old
// production code with its identifiers renamed so both can live in one
// package; do not "fix" it, it is the specification.

// refView is what the arbiter can see of the switch each cycle: the state of
// every (input buffer, output queue) pair. Implementations are provided by
// the switch model. A queue with QueueLen > 0 is understood to have a
// deliverable head packet (FIFOs report 0 when the head is for a different
// output), so QueueLen doubles as the head-availability test.
type refView interface {
	// Ports returns the number of input buffers and output ports.
	Ports() (inputs, outputs int)
	// InputLen is the total packet count buffered at input in, across all
	// of its queues. It must be O(1): the arbiter uses it to skip whole
	// input rows without touching their queues.
	InputLen(in int) int
	// QueueLen is the number of packets input in could eventually send to
	// out (0 when a FIFO's head is for a different output).
	QueueLen(in, out int) int
	// Blocked reports whether the head packet of (in, out) cannot be
	// forwarded because the downstream buffer refuses it. Only meaningful
	// when QueueLen > 0; under a discarding protocol it is always false.
	Blocked(in, out int) bool
	// MaxReads is the read-port limit of input in's buffer this cycle.
	MaxReads(in int) int
}

// refArbiter holds the priority pointer and stale counts across cycles.
type refArbiter struct {
	policy  Policy
	inputs  int
	outputs int
	prio    int
	stale   [][]int64 // [in][out] cycles the queue has waited with traffic

	// Per-cycle scratch, allocated once: Arbitrate runs for every switch
	// on every network cycle, so per-call slice allocations would dominate
	// the simulator's heap profile.
	outTaken []bool
	granted  []bool
	qlen     []int  // current input row's queue lengths
	sentRow  []bool // current input row's granted outputs

	// Observability probes (nil when no observer is attached). Every use
	// sits behind an `if x != nil` guard so the unobserved arbiter stays
	// branch-predictable, allocation-free, and bit-identical.
	mGrants    *obs.Counter // crossbar connections granted
	mConflicts *obs.Counter // occupied queues that lost because the output was taken
	mBlocked   *obs.Counter // queue heads refused by the downstream buffer
}

// newRef constructs an arbiter for a switch with the given port counts.
func newRef(policy Policy, inputs, outputs int) *refArbiter {
	if inputs <= 0 || outputs <= 0 {
		panic("arbiter: ports must be positive")
	}
	st := make([][]int64, inputs)
	for i := range st {
		st[i] = make([]int64, outputs)
	}
	return &refArbiter{
		policy: policy, inputs: inputs, outputs: outputs, stale: st,
		outTaken: make([]bool, outputs),
		granted:  make([]bool, inputs),
		qlen:     make([]int, outputs),
		sentRow:  make([]bool, outputs),
	}
}

// arbitrate computes this cycle's crossbar matching. It appends grants to
// dst (pass nil to allocate) and returns the result; the order of grants
// follows the examination order, which tests rely on.
//
// The 2×2 single-read-port case — the building block of binary multistage
// networks — dispatches to a branchless fast path that computes the whole
// matching as boolean expressions; every other shape (or an arbiter with
// counters attached, which must count candidate rejections the boolean
// form never enumerates) takes the general scan. Both produce identical
// grants, priority movement, and stale counts; TestArbitrate2x2Equivalence
// pins that against the general path run on the same state.
func (a *refArbiter) arbitrate(v refView, dst []Grant) []Grant {
	in, out := v.Ports()
	if in != a.inputs || out != a.outputs {
		panic(fmt.Sprintf("arbiter: view is %dx%d, arbiter is %dx%d", in, out, a.inputs, a.outputs))
	}
	if in == 2 && out == 2 &&
		a.mGrants == nil && a.mConflicts == nil && a.mBlocked == nil &&
		v.MaxReads(0) == 1 && v.MaxReads(1) == 1 {
		return a.arbitrate2x2(v, dst)
	}
	return a.arbitrateGeneral(v, dst)
}

// arbitrate2x2 is the fast path for a 2×2 switch whose buffers expose one
// read port: forwarding eligibility, conflict resolution, and priority
// movement reduce to pure boolean expressions over the four queue states,
// with no per-candidate loops — the style of hardware arbitration logic,
// one gate level per term. Row i0 (the priority holder) picks first; row
// i1 then sees i0's winning output as taken.
func (a *refArbiter) arbitrate2x2(v refView, dst []Grant) []Grant {
	i0 := a.prio
	i1 := i0 ^ 1
	len0 := v.InputLen(i0) > 0
	len1 := v.InputLen(i1) > 0

	var g0, g1, g0hi bool // row grants; g0hi = row i0 took output 1
	if len0 {
		p0, p1 := a.pick2(v, i0, false, false)
		g0 = p0 || p1
		g0hi = p1
		if g0 {
			dst = append(dst, Grant{In: i0, Out: refB2i(p1)})
		}
	}
	if len1 {
		p0, p1 := a.pick2(v, i1, g0 && !g0hi, g0 && g0hi)
		g1 = p0 || p1
		if g1 {
			dst = append(dst, Grant{In: i1, Out: refB2i(p1)})
		}
	}

	// Priority as one boolean term. Smart keeps the pointer on i0 when the
	// holder had traffic but sent nothing (blocked turns are not counted),
	// and lands on i0 after a round where only i1 transmitted (rotate past
	// the first server); every other case — any dumb round, a holder
	// grant, a completely idle round — moves it to i1.
	if a.policy == Smart && !g0 && (len0 || g1) {
		a.prio = i0
	} else {
		a.prio = i1
	}
	return dst
}

// pick2 computes one 2×2 row's winning output as boolean logic: e_o is
// the forward-eligibility of queue o (has traffic, output free, head not
// blocked downstream), beats is the policy's preference for output 1 over
// output 0 (stalest first under smart, then longest queue, ties to the
// lower output), and the one-hot pick follows. Stale counts transition
// exactly as the general row epilogue: waiting queues age, transmitting
// or empty queues reset.
func (a *refArbiter) pick2(v refView, i int, t0, t1 bool) (p0, p1 bool) {
	s := a.stale[i]
	q0 := v.QueueLen(i, 0)
	q1 := v.QueueLen(i, 1)
	e0 := !t0 && q0 > 0 && !v.Blocked(i, 0)
	e1 := !t1 && q1 > 0 && !v.Blocked(i, 1)
	smart := a.policy == Smart
	beats := (smart && s[1] > s[0]) || ((!smart || s[1] == s[0]) && q1 > q0)
	p1 = e1 && (!e0 || beats)
	p0 = e0 && !p1
	s[0] = refStaleNext(s[0], q0 > 0 && !p0)
	s[1] = refStaleNext(s[1], q1 > 0 && !p1)
	return p0, p1
}

// refStaleNext is the per-queue stale transition function.
func refStaleNext(old int64, waiting bool) int64 {
	if waiting {
		return old + 1
	}
	return 0
}

// refB2i maps a one-hot output-1 pick to its output index.
func refB2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// arbitrateGeneral is the reference matching algorithm for every port
// count, read-port limit, and observed arbiter.
func (a *refArbiter) arbitrateGeneral(v refView, dst []Grant) []Grant {
	outTaken := a.outTaken
	granted := a.granted // whether the buffer transmitted at all
	for i := range outTaken {
		outTaken[i] = false
	}
	for i := range granted {
		granted[i] = false
	}
	firstGranted := -1 // first input served, in examination order
	qlen := a.qlen
	sentRow := a.sentRow

	for k := 0; k < a.inputs; k++ {
		i := (a.prio + k) % a.inputs
		if v.InputLen(i) == 0 {
			// An empty input can receive no grant, and its stale counts
			// are already zero (a queue only carries a nonzero stale
			// count while it holds traffic — any pop routes through a
			// grant, which resets the count), so the whole row is
			// skipped without touching its queues.
			continue
		}
		// Snapshot this row's queue lengths once. Arbitrate never pops,
		// so they cannot change mid-call; the snapshot replaces the
		// per-candidate HasHead/QueueLen view calls on the simulator's
		// hottest path.
		for o := 0; o < a.outputs; o++ {
			qlen[o] = v.QueueLen(i, o)
			sentRow[o] = false
		}
		stale := a.stale[i]
		reads := v.MaxReads(i)
		for r := 0; r < reads; r++ {
			best := -1
			// The three rejection tests keep the pre-observability
			// short-circuit order (taken output, empty queue, blocked head)
			// so the unobserved path performs the exact same view calls.
			for o := 0; o < a.outputs; o++ {
				if outTaken[o] {
					if a.mConflicts != nil {
						if qlen[o] > 0 {
							a.mConflicts.Inc()
						}
					}
					continue
				}
				if qlen[o] == 0 {
					continue
				}
				if v.Blocked(i, o) {
					if a.mBlocked != nil {
						a.mBlocked.Inc()
					}
					continue
				}
				if best == -1 || refBetter(a.policy, stale, qlen, o, best) {
					best = o
				}
			}
			if best == -1 {
				break
			}
			outTaken[best] = true
			granted[i] = true
			sentRow[best] = true
			if firstGranted == -1 {
				firstGranted = i
			}
			dst = append(dst, Grant{In: i, Out: best})
			if a.mGrants != nil {
				a.mGrants.Inc()
			}
		}
		// Update this row's stale counts — final once its examination
		// ends, since later rows cannot grant to it: queues holding
		// traffic that did not transmit age by one; transmitting or
		// empty queues reset. (A queue that sent one of several waiting
		// packets still made progress, so it resets.)
		for o := 0; o < a.outputs; o++ {
			if qlen[o] > 0 && !sentRow[o] {
				stale[o]++
			} else {
				stale[o] = 0
			}
		}
	}

	// Advance the priority pointer.
	switch a.policy {
	case Dumb:
		a.prio = (a.prio + 1) % a.inputs
	case Smart:
		// The paper's rule: a priority holder whose packets were all
		// blocked keeps its turn ("does not count the times a buffer has
		// priority but still does not transmit"). That rule is only
		// about buffers that *held traffic*: an empty holder forfeits,
		// and the pointer rotates to just past the first buffer actually
		// served, so quiet inputs cannot pin the examination order and
		// starve later buffers.
		holderHadTraffic := v.InputLen(a.prio) > 0
		switch {
		case holderHadTraffic && !granted[a.prio]:
			// Blocked with traffic: turn not counted, priority retained.
		case firstGranted >= 0:
			a.prio = (firstGranted + 1) % a.inputs
		default:
			a.prio = (a.prio + 1) % a.inputs
		}
	}
	return dst
}

// refBetter reports whether output o beats the incumbent best within one
// input row under the active policy's selection rule: stalest first
// (smart only), then longest queue, ties keeping the lowest output. It
// works on the row's snapshotted state so candidate comparison costs no
// interface calls.
func refBetter(policy Policy, stale []int64, qlen []int, o, best int) bool {
	if policy == Smart && stale[o] != stale[best] {
		return stale[o] > stale[best]
	}
	return qlen[o] > qlen[best]
}

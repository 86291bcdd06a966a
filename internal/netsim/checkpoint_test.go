package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/rng"
	"damq/internal/sw"
)

// runWithCheckpointAt drives s to completion exactly like Run, writing a
// checkpoint when the cycle counter reaches at (before stepping that
// cycle). It returns the checkpoint bytes and the final result, so one
// sim serves as both the snapshot source and the uninterrupted twin.
func runWithCheckpointAt(t *testing.T, s *Sim, at int64) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	save := func() {
		if s.cycle != at {
			return
		}
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint at cycle %d: %v", at, err)
		}
	}
	for s.cycle < s.cfg.WarmupCycles {
		save()
		s.Step(false)
	}
	if s.measured == 0 {
		s.warmupBoundary = s.cycle
	}
	for s.measured < s.cfg.MeasureCycles {
		save()
		s.Step(true)
	}
	if buf.Len() == 0 {
		t.Fatalf("checkpoint cycle %d never reached", at)
	}
	return buf.Bytes(), s.Collect()
}

// tortureCase is one cell of the kill-and-resume matrix: a config
// variant, whether faults are armed, and the worker counts on the two
// sides of the checkpoint.
type tortureCase struct {
	name    string
	cfg     Config
	faults  bool
	observe bool
}

func tortureCases() []tortureCase {
	base := func(seed uint64) Config {
		return Config{
			Radix: 4, Inputs: 64, Capacity: 4, ClocksPerCycle: 12,
			WarmupCycles: 60, MeasureCycles: 200, Seed: seed,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.7},
		}
	}
	var cases []tortureCase
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := base(seed)
		switch seed {
		case 1:
			cfg.BufferKind = buffer.DAMQ
			cfg.Protocol = sw.Discarding
		case 2:
			cfg.BufferKind = buffer.DAMQ
			cfg.Protocol = sw.Blocking
			cfg.Traffic = TrafficSpec{Kind: HotSpot, Load: 0.5, HotFraction: 0.05}
		case 3:
			cfg.BufferKind = buffer.FIFO
			cfg.Protocol = sw.Discarding
			cfg.Traffic = TrafficSpec{Kind: Bursty, Load: 0.6, MeanBurst: 3}
		case 4:
			cfg.BufferKind = buffer.DT
			cfg.SharedPool = true
			cfg.Protocol = sw.Discarding
			cfg.Traffic.MinSlots, cfg.Traffic.MaxSlots = 1, 4
		case 5:
			cfg.BufferKind = buffer.BSHARE
			cfg.Protocol = sw.Discarding
			perm := make([]int, cfg.Inputs)
			for i := range perm {
				perm[i] = (i + 17) % cfg.Inputs
			}
			cfg.Traffic = TrafficSpec{Kind: Permutation, Load: 0.8, Perm: perm}
		}
		for _, faults := range []bool{false, true} {
			cases = append(cases, tortureCase{
				name:   fmt.Sprintf("seed%d/kind=%v/faults=%v", seed, cfg.BufferKind, faults),
				cfg:    cfg,
				faults: faults,
				// Observed sims step serially, so half the matrix keeps the
				// gang path exercised by staying unobserved.
				observe: seed%2 == 1,
			})
		}
	}
	return cases
}

func tortureFaults() fault.Config {
	return fault.Config{SlotStuckRate: 2e-5, LinkTransientRate: 5e-4, LinkDeadRate: 1e-5}
}

// TestCheckpointResumeTorture is the kill-and-resume harness: for every
// matrix cell it checkpoints a run at a pseudo-random cycle, restores at
// a different worker count, finishes both, and requires the resumed run
// to match the uninterrupted twin exactly — aggregate Result, metric
// snapshot bytes, and the per-packet delivery tuples after the
// checkpoint cycle.
func TestCheckpointResumeTorture(t *testing.T) {
	for _, tc := range tortureCases() {
		for _, workers := range []int{1, 8} {
			workers := workers
			tc := tc
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				cfg := tc.cfg
				cfg.Workers = workers
				total := cfg.WarmupCycles + cfg.MeasureCycles
				at := 1 + int64(rng.New(cfg.Seed*977+uint64(workers)).Intn(int(total-1)))

				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer twin.Close()
				twin.RecordDeliveries(true)
				if tc.faults {
					if err := twin.SetFaults(tortureFaults()); err != nil {
						t.Fatal(err)
					}
				}
				var twinObs *obs.Observer
				if tc.observe {
					twinObs = obs.NewObserver()
					twinObs.SetInterval(16)
					twin.SetObserver(twinObs)
				}
				raw, want := runWithCheckpointAt(t, twin, at)

				// Resume at the flipped worker count: the checkpoint must be
				// execution-knob agnostic.
				resumedWorkers := 8
				if workers == 8 {
					resumedWorkers = 1
				}
				res, err := RestoreSimOpts(bytes.NewReader(raw), RestoreOpts{Workers: resumedWorkers, WorkersSet: true})
				if err != nil {
					t.Fatalf("restore at cycle %d: %v", at, err)
				}
				defer res.Close()
				res.RecordDeliveries(true)
				var resObs *obs.Observer
				if tc.observe {
					resObs = obs.NewObserver()
					res.SetObserver(resObs)
				}
				got := res.Run()

				if !reflect.DeepEqual(want, got) {
					t.Errorf("resumed Result differs from uninterrupted twin (checkpoint at cycle %d)\nwant %+v\ngot  %+v", at, want, got)
				}
				var tail []Delivery
				for _, dl := range twin.Deliveries() {
					if dl.DeliveredAt >= at {
						tail = append(tail, dl)
					}
				}
				if !reflect.DeepEqual(tail, res.Deliveries()) {
					t.Errorf("delivery tuples after cycle %d diverge: twin tail %d, resumed %d",
						at, len(tail), len(res.Deliveries()))
				}
				if tc.observe {
					wantSnap, err := twinObs.Snapshot().Encode()
					if err != nil {
						t.Fatal(err)
					}
					gotSnap, err := resObs.Snapshot().Encode()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantSnap, gotSnap) {
						t.Errorf("metric snapshots diverge after resume at cycle %d:\nwant %s\ngot  %s",
							at, wantSnap, gotSnap)
					}
				}
			})
		}
	}
}

// TestCheckpointCompletedRun: a checkpoint of a finished simulation
// restores to a Sim whose Run is a no-op returning the same Result.
func TestCheckpointCompletedRun(t *testing.T) {
	cfg := Config{Inputs: 16, WarmupCycles: 20, MeasureCycles: 50, Seed: 7,
		BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.6}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := RestoreSim(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run(); !reflect.DeepEqual(want, got) {
		t.Errorf("restored completed run diverges:\nwant %+v\ngot  %+v", want, got)
	}
	if res.Cycle() != cfg.WarmupCycles+cfg.MeasureCycles {
		t.Errorf("restored cycle %d, want %d", res.Cycle(), cfg.WarmupCycles+cfg.MeasureCycles)
	}
}

// TestRestoreWorkersOverride checks the knob plumbing: without an
// override the checkpointed Workers applies; with one, the override.
func TestRestoreWorkersOverride(t *testing.T) {
	cfg := Config{Inputs: 64, Workers: 8, WarmupCycles: 10, MeasureCycles: 10, Seed: 3,
		BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	same, err := RestoreSim(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if same.Workers() != 8 {
		t.Errorf("restored Workers = %d, want the checkpointed 8", same.Workers())
	}
	over, err := RestoreSimOpts(bytes.NewReader(raw), RestoreOpts{Workers: 1, WorkersSet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if over.Workers() != 1 {
		t.Errorf("overridden Workers = %d, want 1", over.Workers())
	}
}

// corpusCheckpoint builds a small checkpoint exercising every section:
// faults armed, observer attached, blocking backlog, variable lengths.
func corpusCheckpoint(t testing.TB) []byte {
	cfg := Config{
		Radix: 4, Inputs: 16, Capacity: 4, ClocksPerCycle: 12,
		WarmupCycles: 30, MeasureCycles: 40, Seed: 11,
		BufferKind: buffer.DAMQ, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.9},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults(tortureFaults()); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	o.SetInterval(8)
	s.SetObserver(o)
	for i := 0; i < 30; i++ {
		s.Step(false)
	}
	s.warmupBoundary = s.cycle
	for i := 0; i < 20; i++ {
		s.Step(true)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCheckpointError asserts the corrupted-stream contract: decoding
// must fail with one of the two typed sentinels and must not panic.
func wantCheckpointError(t *testing.T, raw []byte, what string) {
	t.Helper()
	s, err := RestoreSim(bytes.NewReader(raw))
	if s != nil {
		s.Close()
	}
	if err == nil {
		t.Fatalf("%s: corrupted checkpoint restored without error", what)
	}
	if !errors.Is(err, cfgerr.ErrBadCheckpoint) && !errors.Is(err, cfgerr.ErrCheckpointVersion) {
		t.Fatalf("%s: error %v is not a checkpoint sentinel", what, err)
	}
}

// corruptionOffsets picks the byte offsets the corruption sweeps hit:
// every byte of the structure-rich prefix (frame header, config, core,
// and the leading switch state) and of the CRC-bearing tail, with the
// histogram-dominated bulk sampled on a prime stride. A full every-byte
// sweep is O(n²) in the checkpoint size for no added structural
// coverage — the bulk is long runs of identical zero buckets.
func corruptionOffsets(n int) []int {
	var offs []int
	for i := 0; i < n && i < 4096; i++ {
		offs = append(offs, i)
	}
	for i := 4096; i < n-128; i += 191 {
		offs = append(offs, i)
	}
	for i := n - 128; i < n; i++ {
		if i >= 4096 {
			offs = append(offs, i)
		}
	}
	return offs
}

// TestCheckpointTruncation: prefixes of a valid checkpoint fail with a
// typed error — every boundary in the structured prefix and tail, the
// bulk strided.
func TestCheckpointTruncation(t *testing.T) {
	raw := corpusCheckpoint(t)
	for _, i := range corruptionOffsets(len(raw)) {
		wantCheckpointError(t, raw[:i], fmt.Sprintf("truncated to %d bytes", i))
	}
}

// TestCheckpointBitFlips flips bytes with the frame CRC left stale (the
// checksum must catch every one) and, separately, with the CRC patched
// to match — driving the structural validators — where the contract is
// "typed error or clean restore, never a panic".
func TestCheckpointBitFlips(t *testing.T) {
	raw := corpusCheckpoint(t)
	offs := corruptionOffsets(len(raw))
	for _, i := range offs {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		wantCheckpointError(t, mut, fmt.Sprintf("stale-CRC flip at byte %d", i))
	}
	// CRC-patched flips drive the structural validators past the
	// checksum; a flip in pure statistics (a histogram bucket) may
	// restore cleanly, which is fine — the contract is no panic and no
	// untyped error.
	for _, i := range offs {
		if i >= len(raw)-4 {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		patchCRC(mut)
		s, err := RestoreSim(bytes.NewReader(mut))
		if s != nil {
			s.Close()
		}
		if err != nil && !errors.Is(err, cfgerr.ErrBadCheckpoint) && !errors.Is(err, cfgerr.ErrCheckpointVersion) {
			t.Fatalf("patched-CRC flip at byte %d: error %v is not a checkpoint sentinel", i, err)
		}
	}
}

// patchCRC rewrites the trailing frame checksum to match the mutated
// bytes, so decoding proceeds past the envelope into the validators.
func patchCRC(raw []byte) {
	if len(raw) < 4 {
		return
	}
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	raw[len(raw)-4] = byte(sum)
	raw[len(raw)-3] = byte(sum >> 8)
	raw[len(raw)-2] = byte(sum >> 16)
	raw[len(raw)-1] = byte(sum >> 24)
}

// TestCheckpointVersionSkew: a bumped version field fails with the
// version sentinel even with a correct CRC.
func TestCheckpointVersionSkew(t *testing.T) {
	raw := corpusCheckpoint(t)
	mut := append([]byte(nil), raw...)
	mut[8]++ // version u32 follows the 8-byte magic
	patchCRC(mut)
	_, err := RestoreSim(bytes.NewReader(mut))
	if !errors.Is(err, cfgerr.ErrCheckpointVersion) {
		t.Fatalf("version skew: got %v, want ErrCheckpointVersion", err)
	}
}

// TestCheckpointStructuralCorruption hand-builds streams that pass the
// CRC but violate the section contract.
func TestCheckpointStructuralCorruption(t *testing.T) {
	frame := func(build func(e *checkpoint.Encoder)) []byte {
		e := checkpoint.NewEncoder()
		build(e)
		var buf bytes.Buffer
		if err := e.Emit(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantCheckpointError(t, frame(func(e *checkpoint.Encoder) {}), "empty payload")
	wantCheckpointError(t, frame(func(e *checkpoint.Encoder) {
		e.Section(42, func(e *checkpoint.Encoder) { e.I64(1) })
	}), "unknown section tag")
	wantCheckpointError(t, frame(func(e *checkpoint.Encoder) {
		// Config alone: every other mandatory section missing.
		e.Section(1, func(e *checkpoint.Encoder) {
			s, err := New(Config{Inputs: 16, Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			s.encodeConfig(e)
		})
	}), "missing sections")
	wantCheckpointError(t, frame(func(e *checkpoint.Encoder) {
		// Sections out of order: core before config.
		e.Section(2, func(e *checkpoint.Encoder) { e.I64(0) })
		e.Section(1, func(e *checkpoint.Encoder) { e.I64(0) })
	}), "out-of-order sections")
	wantCheckpointError(t, frame(func(e *checkpoint.Encoder) {
		// A config whose geometry passes shape checks but blows the
		// restore allocation cap.
		var c Config
		c.Radix, c.Inputs, c.Capacity = 2, 1<<16, 1<<12
		c.ClocksPerCycle, c.WarmupCycles, c.MeasureCycles = 12, 1, 1
		c.Traffic = TrafficSpec{Kind: Uniform, Load: 0.5}
		sim := &Sim{cfg: c}
		e.Section(1, sim.encodeConfig)
	}), "oversized geometry")
}

// TestCheckpointRejectsStaleOnEmptyQueue: arbitration skips input rows
// with no traffic on the premise that their stale counts are zero, so a
// checkpoint whose arbiter ages an empty queue cannot have come from a
// run. It is CRC-valid and well-formed, and restore must still refuse it
// with a typed error rather than resume a run that never happened.
func TestCheckpointRejectsStaleOnEmptyQueue(t *testing.T) {
	cfg := Config{
		Radix: 4, Inputs: 16, Capacity: 4, WarmupCycles: 10, MeasureCycles: 40, Seed: 3,
		BufferKind: buffer.DAMQ, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.5},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Step(false)
	}
	var clean bytes.Buffer
	if err := s.Checkpoint(&clean); err != nil {
		t.Fatal(err)
	}
	if r, err := RestoreSim(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("unaltered checkpoint: %v", err)
	} else {
		r.Close()
	}
	// Age the first empty queue found.
	swc := s.stages[0][0]
	in, out := -1, -1
	for i := 0; i < swc.Ports() && in < 0; i++ {
		for o := 0; o < swc.Ports(); o++ {
			if swc.Buffer(i).Head(o) == nil {
				in, out = i, o
				break
			}
		}
	}
	if in < 0 {
		t.Fatal("switch has no empty queue to age")
	}
	st := swc.Arbiter().SaveState()
	st.Stale[in*swc.Ports()+out] = 3
	if err := swc.Arbiter().LoadState(st); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wantCheckpointError(t, buf.Bytes(), "stale count on an empty queue")
}

// TestCheckpointRejectsWrappedQueueCounts: the slot pool keeps its
// per-queue packet and slot counts in int32 registers, while the stream
// carries them as int64. A count of 2^32 plus the true value would
// narrow to the true value and pass every structural audit, so restore
// must refuse any count outside [0, capacity] before narrowing. The
// stream stays CRC-valid and well formed; only one counter is patched.
func TestCheckpointRejectsWrappedQueueCounts(t *testing.T) {
	cfg := Config{
		Radix: 4, Inputs: 16, Capacity: 4, WarmupCycles: 10, MeasureCycles: 40, Seed: 3,
		BufferKind: buffer.DAMQ, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.9},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Step until input 0 of stage-0 switch 0 — the first pool in the
	// switch section — holds a packet.
	b := s.stages[0][0].Buffer(0)
	for i := 0; i < 100 && b.Empty(); i++ {
		s.Step(false)
	}
	q := -1
	for out := 0; out < cfg.Radix && q < 0; out++ {
		if b.QueueLen(out) > 0 {
			q = out
		}
	}
	if q < 0 {
		t.Fatal("first pool never filled")
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if r, err := RestoreSim(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unaltered checkpoint: %v", err)
	} else {
		r.Close()
	}

	// Walk the sections (tag, uint64 length, body) to the switch section.
	const headerLen = 8 + 4 + 8
	off := headerLen
	for raw[off] != secSwitches {
		off += 1 + 8 + int(binary.LittleEndian.Uint64(raw[off+1:]))
	}
	off += 1 + 8
	// Stage-0 switch 0: arbiter priority and stale counts, then input 0's
	// pool: Next, Owner, FreeHead, FreeTail, FreeCount, QHead, QTail,
	// QPkts, QSlots. Length prefixes are uint64.
	n, slots := cfg.Radix, cfg.Capacity
	off += 8 + 8 + 8*n*n
	off += 2 * (8 + 4*slots)
	off += 4 + 4 + 8
	off += 2 * (8 + 4*n)
	qPkts := off + 8 + 8*q
	qSlots := off + (8 + 8*n) + 8 + 8*q
	for _, c := range []struct {
		name string
		at   int
		want int
	}{
		{"packets", qPkts, b.QueueLen(q)},
		{"slots", qSlots, b.QueueSlots(q)},
	} {
		if got := int(binary.LittleEndian.Uint64(raw[c.at:])); got != c.want {
			t.Fatalf("%s counter of queue %d encoded as %d, want %d: layout drifted", c.name, q, got, c.want)
		}
		mut := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(mut[c.at:], uint64(c.want)+1<<32)
		patchCRC(mut)
		r, err := RestoreSim(bytes.NewReader(mut))
		if r != nil {
			r.Close()
		}
		if !errors.Is(err, cfgerr.ErrBadCheckpoint) {
			t.Errorf("%s counter %d+2^32: got %v, want ErrBadCheckpoint", c.name, c.want, err)
		}
	}
}

// TestCheckpointRejectsTrailingGarbage: extra bytes after a section body
// or after the payload are corruption, not slack.
func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	raw := corpusCheckpoint(t)
	mut := append(append([]byte(nil), raw...), 0xEE)
	wantCheckpointError(t, mut, "trailing byte after frame")
}

// TestArbiterStateRoundTrip pins the arbiter Save/Load pair the switch
// section rides on.
func TestArbiterStateRoundTrip(t *testing.T) {
	a := arbiter.New(arbiter.Smart, 4, 4)
	st := a.SaveState()
	st.Prio = 99
	if err := a.LoadState(st); err == nil {
		t.Error("LoadState accepted an out-of-range priority pointer")
	}
	st.Prio = 2
	if err := a.LoadState(st); err != nil {
		t.Errorf("LoadState rejected a valid state: %v", err)
	}
	if got := a.SaveState(); !reflect.DeepEqual(got.Stale, st.Stale) || got.Prio != 2 {
		t.Errorf("arbiter state did not round-trip: %+v vs %+v", got, st)
	}
}

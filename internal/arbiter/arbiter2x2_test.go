package arbiter

import (
	"reflect"
	"testing"

	"damq/internal/rng"
)

// clone2x2 builds the mask arbiter and the reference with the same
// cross-cycle state (priority pointer and stale counts) — the only state
// Arbitrate carries between cycles.
func clone2x2(t *testing.T, policy Policy, prio int, stale [4]int64) (*Arbiter, *refArbiter) {
	t.Helper()
	a := New(policy, 2, 2)
	if err := a.LoadState(State{Prio: prio, Stale: stale[:]}); err != nil {
		t.Fatal(err)
	}
	ref := newRef(policy, 2, 2)
	ref.prio = prio
	ref.stale[0][0], ref.stale[0][1] = stale[0], stale[1]
	ref.stale[1][0], ref.stale[1][1] = stale[2], stale[3]
	return a, ref
}

// refState is the reference's cross-cycle state in the mask arbiter's
// State layout, for comparison with SaveState.
func refState(r *refArbiter) State {
	st := State{Prio: r.prio}
	for _, row := range r.stale {
		st.Stale = append(st.Stale, row...)
	}
	return st
}

// TestArbitrate2x2Exhaustive proves the mask routine equivalent, on a
// 2×2 switch, to both paths of the reference — its branchless 2×2 path
// and its general scan — by brute force: every combination of queue
// lengths, blocked flags, priority position, and a spread of stale
// counts, under both policies. Grants (values and order), the next
// priority pointer, and every stale counter must match exactly.
func TestArbitrate2x2Exhaustive(t *testing.T) {
	qlens := []int{0, 1, 3}
	stales := []int64{0, 2}
	var cases int
	for _, policy := range []Policy{Dumb, Smart} {
		for prio := 0; prio < 2; prio++ {
			var q [4]int
			for _, q00 := range qlens {
				for _, q01 := range qlens {
					for _, q10 := range qlens {
						for _, q11 := range qlens {
							q = [4]int{q00, q01, q10, q11}
							for blk := 0; blk < 16; blk++ {
								var s [4]int64
								for _, s00 := range stales {
									for _, s11 := range stales {
										s = [4]int64{s00, 1, 0, s11}
										cases++
										mask, general := clone2x2(t, policy, prio, s)
										_, fast := clone2x2(t, policy, prio, s)
										v := newTable(2, 2)
										for i := 0; i < 2; i++ {
											for o := 0; o < 2; o++ {
												v.set(i, o, q[2*i+o])
												v.block(i, o, blk&(1<<(2*i+o)) != 0)
											}
										}
										gotG := v.arbitrate(mask, nil)
										for _, ref := range []struct {
											name   string
											arb    *refArbiter
											grants []Grant
										}{
											{"general", general, general.arbitrateGeneral(v, nil)},
											{"2x2", fast, fast.arbitrate2x2(v, nil)},
										} {
											if !reflect.DeepEqual(gotG, ref.grants) {
												t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: grants %v, %s %v",
													policy, prio, q, blk, s, gotG, ref.name, ref.grants)
											}
											if got, want := mask.SaveState(), refState(ref.arb); !reflect.DeepEqual(got, want) {
												t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: state %+v, %s %+v",
													policy, prio, q, blk, s, got, ref.name, want)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("exhaustive sweep covered only %d cases", cases)
	}
}

// TestArbitrate2x2Trajectory runs paired arbiters through thousands of
// random cycles, the mask routine dispatched through the public
// Arbitrate, the reference pinned to its general scan. State carried
// across cycles — priority rotation and stale aging — must never
// diverge.
func TestArbitrate2x2Trajectory(t *testing.T) {
	for _, policy := range []Policy{Dumb, Smart} {
		src := rng.New(42 + uint64(policy))
		fast := New(policy, 2, 2)
		ref := newRef(policy, 2, 2)
		v := newTable(2, 2)
		for step := 0; step < 5000; step++ {
			for i := 0; i < 2; i++ {
				for o := 0; o < 2; o++ {
					v.set(i, o, int(src.Intn(4)))
					v.block(i, o, src.Intn(3) == 0)
				}
			}
			gotG := v.arbitrate(fast, nil)
			wantG := ref.arbitrateGeneral(v, nil)
			if !reflect.DeepEqual(gotG, wantG) {
				t.Fatalf("%v step %d: grants %v, general %v", policy, step, gotG, wantG)
			}
			if got, want := fast.SaveState(), refState(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v step %d: state %+v, general %+v", policy, step, got, want)
			}
		}
	}
}

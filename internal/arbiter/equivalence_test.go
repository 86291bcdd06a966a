package arbiter

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"damq/internal/obs"
	"damq/internal/rng"
)

// TestArbitrateMatchesReference runs the mask routine and the reference
// arbiter side by side through random cycles over every shape the
// simulators build: 2, 3, 4 and 8 ports, one read port or one per
// output, both policies, with and without counters. Each cycle draws a
// fresh occupancy (its density varies from cycle to cycle, so empty and
// full rows both occur), queue lengths and blocked flags; every few
// cycles both arbiters are also loaded with the same random priority
// and stale counts, small enough to tie often. The grants and their
// order, the blocked-probe calls and their order, the priority pointer,
// every stale count and every counter value must match exactly.
func TestArbitrateMatchesReference(t *testing.T) {
	src := rng.New(12)
	for _, n := range []int{2, 3, 4, 8} {
		for _, reads := range []int{1, n} {
			for _, policy := range []Policy{Dumb, Smart} {
				for _, counted := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/reads=%d/%v/counted=%v", n, n, reads, policy, counted)
					t.Run(name, func(t *testing.T) {
						matchReference(t, src, n, reads, policy, counted)
					})
				}
			}
		}
	}
}

func matchReference(t *testing.T, src *rng.Source, n, reads int, policy Policy, counted bool) {
	mask := New(policy, n, n)
	ref := newRef(policy, n, n)
	var mc, rc [3]obs.Counter
	if counted {
		mask.SetMetrics(&mc[0], &mc[1], &mc[2])
		ref.mGrants, ref.mConflicts, ref.mBlocked = &rc[0], &rc[1], &rc[2]
	}
	v := newTable(n, n)
	v.reads = reads
	v.record = true
	for step := 0; step < 300; step++ {
		if step%4 == 0 {
			st := State{Prio: src.Intn(n), Stale: make([]int64, n*n)}
			for k := range st.Stale {
				st.Stale[k] = int64(src.Intn(3))
			}
			if err := mask.LoadState(st); err != nil {
				t.Fatal(err)
			}
			ref.prio = st.Prio
			for i := range ref.stale {
				copy(ref.stale[i], st.Stale[i*n:(i+1)*n])
			}
		}
		density := src.Float64()
		for i := 0; i < n; i++ {
			for o := 0; o < n; o++ {
				l := 0
				if src.Float64() < density {
					l = 1 + src.Intn(3)
				}
				v.set(i, o, l)
				v.block(i, o, src.Intn(3) == 0)
			}
		}
		v.probes = v.probes[:0]
		got := v.arbitrate(mask, nil)
		gotProbes := append([][2]int(nil), v.probes...)
		v.probes = v.probes[:0]
		want := ref.arbitrate(v, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d queues %v blocked %v: grants %v, reference %v", step, v.queues, v.blocked, got, want)
		}
		if !slices.Equal(gotProbes, v.probes) {
			t.Fatalf("step %d: probes %v, reference %v", step, gotProbes, v.probes)
		}
		if gs, ws := mask.SaveState(), refState(ref); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("step %d: state %+v, reference %+v", step, gs, ws)
		}
		for k := range mc {
			if mc[k].Value() != rc[k].Value() {
				t.Fatalf("step %d: counters %d/%d/%d, reference %d/%d/%d", step,
					mc[0].Value(), mc[1].Value(), mc[2].Value(), rc[0].Value(), rc[1].Value(), rc[2].Value())
			}
		}
	}
	if counted && (mc[0].Value() == 0 || mc[1].Value() == 0 || mc[2].Value() == 0) {
		t.Fatalf("a counter never moved (%d/%d/%d): the comparison proved nothing about it",
			mc[0].Value(), mc[1].Value(), mc[2].Value())
	}
}

// TestArbitrateAllocFree pins the matching's allocation budget: with the
// grant slice warmed, repeated arbitration allocates nothing, bare on a
// 2×2 switch and with counters attached on 2×2, 4×4 and 8×8 ones.
func TestArbitrateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		n       int
		counted bool
	}{{2, false}, {2, true}, {4, true}, {8, true}} {
		a := New(Smart, tc.n, tc.n)
		var c [3]obs.Counter
		if tc.counted {
			a.SetMetrics(&c[0], &c[1], &c[2])
		}
		v := newTable(tc.n, tc.n)
		for i := 0; i < tc.n; i++ {
			v.set(i, i, 1)
			v.set(i, (i+1)%tc.n, 2)
			v.block(i, i, i%2 == 0)
		}
		rows := v.rows()
		dst := make([]Grant, 0, tc.n)
		avg := testing.AllocsPerRun(1000, func() {
			dst = a.Arbitrate(rows, 1, v, dst[:0])
		})
		if avg != 0 {
			t.Fatalf("%dx%d counted=%v: Arbitrate allocates %.3f allocs/op, want 0", tc.n, tc.n, tc.counted, avg)
		}
	}
}

package omega

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 4); err == nil {
		t.Error("accepted radix 1")
	}
	if _, err := New(4, 2); err == nil {
		t.Error("accepted inputs < radix")
	}
	if _, err := New(4, 48); err == nil {
		t.Error("accepted non-power inputs")
	}
	top, err := New(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if top.Stages() != 3 || top.SwitchesPerStage() != 16 || top.Radix() != 4 || top.Inputs() != 64 {
		t.Fatalf("64-input radix-4: %+v", top)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(4, 63)
}

func TestShuffleIsPermutation(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 8}, {4, 64}, {2, 64}, {4, 16}} {
		top := MustNew(cfg.k, cfg.n)
		seen := make([]bool, cfg.n)
		for x := 0; x < cfg.n; x++ {
			y := top.Shuffle(x)
			if y < 0 || y >= cfg.n || seen[y] {
				t.Fatalf("k=%d n=%d: shuffle not a permutation at %d->%d", cfg.k, cfg.n, x, y)
			}
			seen[y] = true
		}
	}
}

func TestShuffleRotatesDigits(t *testing.T) {
	// For k=2, N=8: shuffle(x) is a left rotate of 3 bits.
	top := MustNew(2, 8)
	cases := map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7}
	for x, want := range cases {
		if got := top.Shuffle(x); got != want {
			t.Errorf("shuffle(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestSwitchPortLineRoundTrip(t *testing.T) {
	f := func(sw, port uint8) bool {
		k := 4
		s, p := int(sw)%16, int(port)%k
		line := Line(k, s, p)
		gs, gp := SwitchPort(k, line)
		return gs == s && gp == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteDigit(t *testing.T) {
	top := MustNew(4, 64)
	// dest 0b digits: dest = d0*16 + d1*4 + d2 (MSB first).
	dest := 2*16 + 3*4 + 1
	if top.RouteDigit(dest, 0) != 2 || top.RouteDigit(dest, 1) != 3 || top.RouteDigit(dest, 2) != 1 {
		t.Fatalf("digits = %d,%d,%d", top.RouteDigit(dest, 0), top.RouteDigit(dest, 1), top.RouteDigit(dest, 2))
	}
}

// TestAllPathsDeliver is the key topology correctness check: for every
// (src, dest) pair, following the shuffle wiring and digit routing must
// arrive at exactly dest.
func TestAllPathsDeliver(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 8}, {2, 16}, {4, 16}, {4, 64}} {
		top := MustNew(cfg.k, cfg.n)
		for src := 0; src < cfg.n; src++ {
			for dest := 0; dest < cfg.n; dest++ {
				hops := top.Path(src, dest)
				if len(hops) != top.Stages() {
					t.Fatalf("path %d->%d has %d hops", src, dest, len(hops))
				}
				last := hops[len(hops)-1]
				got := top.LastStageOutput(last.Switch, last.OutPort)
				if got != dest {
					t.Fatalf("k=%d n=%d: path %d->%d delivers to %d (hops %v)",
						cfg.k, cfg.n, src, dest, got, hops)
				}
			}
		}
	}
}

// TestStageWiringConsistent checks that NextStage agrees with Path.
func TestStageWiringConsistent(t *testing.T) {
	top := MustNew(4, 64)
	for src := 0; src < 64; src += 7 {
		for dest := 0; dest < 64; dest += 5 {
			hops := top.Path(src, dest)
			for s := 0; s+1 < len(hops); s++ {
				nsw, nport := top.NextStage(hops[s].Switch, hops[s].OutPort)
				if nsw != hops[s+1].Switch || nport != hops[s+1].InPort {
					t.Fatalf("wiring mismatch at stage %d of %d->%d", s, src, dest)
				}
			}
		}
	}
}

func TestInverseShuffle(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 8}, {4, 64}, {4, 16}, {8, 64}} {
		top := MustNew(cfg.k, cfg.n)
		for x := 0; x < cfg.n; x++ {
			if got := top.InverseShuffle(top.Shuffle(x)); got != x {
				t.Fatalf("k=%d n=%d: InverseShuffle(Shuffle(%d)) = %d", cfg.k, cfg.n, x, got)
			}
			if got := top.Shuffle(top.InverseShuffle(x)); got != x {
				t.Fatalf("k=%d n=%d: Shuffle(InverseShuffle(%d)) = %d", cfg.k, cfg.n, x, got)
			}
		}
	}
}

// TestUniqueFirstStagePorts: the pre-stage shuffle must spread the 64
// sources across all 64 stage-0 input ports bijectively.
func TestUniqueFirstStagePorts(t *testing.T) {
	top := MustNew(4, 64)
	seen := map[[2]int]bool{}
	for src := 0; src < 64; src++ {
		sw, port := top.FirstStageSwitch(src)
		key := [2]int{sw, port}
		if seen[key] {
			t.Fatalf("two sources share stage-0 port %v", key)
		}
		seen[key] = true
	}
}

// ref is the closed-form shuffle and digit arithmetic the tables replace;
// TestTablesMatchArithmetic holds New's tables to it.
type ref struct{ k, stages, inputs int }

func (r ref) shuffle(line int) int { return (line*r.k)%r.inputs + line/(r.inputs/r.k) }

func (r ref) inverseShuffle(line int) int { return line/r.k + (line%r.k)*(r.inputs/r.k) }

func (r ref) firstStageSwitch(src int) (int, int) { return SwitchPort(r.k, r.shuffle(src)) }

func (r ref) nextStage(sw, out int) (int, int) { return SwitchPort(r.k, r.shuffle(Line(r.k, sw, out))) }

func (r ref) routeDigit(dest, stage int) int {
	d := dest
	for i := 0; i < r.stages-1-stage; i++ {
		d /= r.k
	}
	return d % r.k
}

func (r ref) path(src, dest int) []Hop {
	var hops []Hop
	sw, port := r.firstStageSwitch(src)
	for s := 0; s < r.stages; s++ {
		out := r.routeDigit(dest, s)
		hops = append(hops, Hop{Stage: s, Switch: sw, InPort: port, OutPort: out})
		if s < r.stages-1 {
			sw, port = r.nextStage(sw, out)
		}
	}
	return hops
}

// TestTablesMatchArithmetic checks every table-driven query against the
// closed form, for every valid network of up to 4096 inputs over radices
// {2, 3, 4, 5, 8, 16}. Path is compared on every (src, dest) pair up to
// 256 inputs and on a stride of pairs beyond.
func TestTablesMatchArithmetic(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 16} {
		for n, stages := k, 1; n <= 4096; n, stages = n*k, stages+1 {
			top, err := New(k, n)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", k, n, err)
			}
			r := ref{k: k, stages: stages, inputs: n}
			if top.Stages() != stages || top.SwitchesPerStage() != n/k {
				t.Fatalf("k=%d n=%d: %d stages of %d switches", k, n, top.Stages(), top.SwitchesPerStage())
			}
			for x := 0; x < n; x++ {
				if got, want := top.Shuffle(x), r.shuffle(x); got != want {
					t.Fatalf("k=%d n=%d: Shuffle(%d) = %d, want %d", k, n, x, got, want)
				}
				if got, want := top.InverseShuffle(x), r.inverseShuffle(x); got != want {
					t.Fatalf("k=%d n=%d: InverseShuffle(%d) = %d, want %d", k, n, x, got, want)
				}
				sw, port := top.FirstStageSwitch(x)
				if wsw, wport := r.firstStageSwitch(x); sw != wsw || port != wport {
					t.Fatalf("k=%d n=%d: FirstStageSwitch(%d) = (%d,%d), want (%d,%d)", k, n, x, sw, port, wsw, wport)
				}
				sw, port = top.NextStage(x/k, x%k)
				if wsw, wport := r.nextStage(x/k, x%k); sw != wsw || port != wport {
					t.Fatalf("k=%d n=%d: NextStage(%d,%d) = (%d,%d), want (%d,%d)", k, n, x/k, x%k, sw, port, wsw, wport)
				}
				for s := 0; s < stages; s++ {
					if got, want := top.RouteDigit(x, s), r.routeDigit(x, s); got != want {
						t.Fatalf("k=%d n=%d: RouteDigit(%d,%d) = %d, want %d", k, n, x, s, got, want)
					}
				}
			}
			step := 1
			if n > 256 {
				step = 37
			}
			for src := 0; src < n; src += step {
				for dest := 0; dest < n; dest += step {
					if got, want := top.Path(src, dest), r.path(src, dest); !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d n=%d: Path(%d,%d) = %v, want %v", k, n, src, dest, got, want)
					}
				}
			}
		}
	}
}

// TestRadixCap: ports and digits are tabulated as bytes, so New refuses
// a radix above MaxRadix and accepts MaxRadix itself.
func TestRadixCap(t *testing.T) {
	if _, err := New(MaxRadix+1, MaxRadix+1); err == nil {
		t.Errorf("accepted radix %d", MaxRadix+1)
	}
	if err := Validate(MaxRadix+1, MaxRadix+1); err == nil {
		t.Errorf("Validate accepted radix %d", MaxRadix+1)
	}
	top, err := New(MaxRadix, MaxRadix*MaxRadix)
	if err != nil {
		t.Fatal(err)
	}
	if got := top.RouteDigit(MaxRadix*MaxRadix-1, 1); got != MaxRadix-1 {
		t.Errorf("top digit of the last destination = %d, want %d", got, MaxRadix-1)
	}
	if sw, port := top.NextStage(top.SwitchesPerStage()-1, MaxRadix-1); sw != top.SwitchesPerStage()-1 || port != MaxRadix-1 {
		t.Errorf("last line wires to (%d,%d)", sw, port)
	}
}

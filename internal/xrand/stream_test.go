package xrand

import (
	"math"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(7, 3, 11)
	b := NewStream(7, 3, 11)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identical keys diverge at draw %d", i)
		}
	}
}

func TestStreamKeySeparation(t *testing.T) {
	// Streams with any differing key component must not collide on their
	// first draws.
	seen := make(map[uint64][3]uint64)
	for seed := uint64(0); seed < 4; seed++ {
		for unit := uint64(0); unit < 32; unit++ {
			for round := uint64(0); round < 32; round++ {
				s := NewStream(seed, unit, round)
				u := s.Uint64()
				if prev, dup := seen[u]; dup {
					t.Fatalf("first-draw collision: (%d,%d,%d) vs %v", seed, unit, round, prev)
				}
				seen[u] = [3]uint64{seed, unit, round}
			}
		}
	}
}

// TestStreamUnitDrawNoAliasing guards the constant choice: unit u at draw
// k+1 must not equal unit u+1 at draw k (which happens when the unit
// multiplier equals the draw increment).
func TestStreamUnitDrawNoAliasing(t *testing.T) {
	for unit := uint64(0); unit < 16; unit++ {
		a := NewStream(1, unit, 5)
		b := NewStream(1, unit+1, 5)
		var as, bs []uint64
		for i := 0; i < 8; i++ {
			as = append(as, a.Uint64())
			bs = append(bs, b.Uint64())
		}
		for i := 0; i+1 < 8; i++ {
			if as[i+1] == bs[i] {
				t.Fatalf("unit %d draw %d aliases unit %d draw %d", unit, i+1, unit+1, i)
			}
		}
	}
}

func TestMix3MatchesFirstDraw(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		s := NewStream(seed, 9, 4)
		if got, want := Mix3(seed, 9, 4), s.Uint64(); got != want {
			t.Fatalf("Mix3(%d,9,4) = %#x, stream first draw %#x", seed, got, want)
		}
	}
}

// TestMixBaseIncremental pins the incremental-loop identities hot paths
// rely on: advancing the base by UnitStride moves to the next unit, and by
// DrawStride to the next draw of the same stream.
func TestMixBaseIncremental(t *testing.T) {
	base := MixBase(99, 10, 7)
	for u := uint64(10); u < 20; u++ {
		if got, want := Mix(base), Mix3(99, u, 7); got != want {
			t.Fatalf("incremental unit %d: %#x, want %#x", u, got, want)
		}
		base += UnitStride
	}
	s := NewStream(5, 2, 3)
	b := MixBase(5, 2, 3)
	for k := 0; k < 10; k++ {
		if got, want := Mix(b+uint64(k)*DrawStride), s.Uint64(); got != want {
			t.Fatalf("draw %d: %#x, want %#x", k, got, want)
		}
	}
}

func TestStreamIntNBounds(t *testing.T) {
	s := NewStream(3, 1, 2)
	for _, n := range []int{1, 2, 3, 7, 14, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestStreamIntNUniform(t *testing.T) {
	s := NewStream(5, 0, 0)
	const n, trials = 7, 70000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.IntN(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("IntN(%d): outcome %d count %d, want about %.0f", n, v, c, want)
		}
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(11, 2, 3)
	sum := 0.0
	const trials = 50000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want about 0.5", mean)
	}
}

func TestStreamBernoulli(t *testing.T) {
	s := NewStream(13, 0, 1)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) false")
	}
	hits := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) empirical %.3f", got)
	}
}

func TestStreamGeometric64(t *testing.T) {
	// p >= 1 consumes exactly one draw and returns 1, so skip-sampling
	// loops advance the stream position identically at every p.
	a := NewStream(13, 2, 3)
	if g := a.Geometric64(1); g != 1 {
		t.Errorf("Geometric64(1) = %d", g)
	}
	b := NewStream(13, 2, 3)
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Error("Geometric64(1) did not consume exactly one draw")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Geometric64(0) did not panic")
			}
		}()
		s := NewStream(1, 1, 1)
		s.Geometric64(0)
	}()

	// Determinism: same key, same skip sequence.
	s1, s2 := NewStream(7, 1, 9), NewStream(7, 1, 9)
	for i := 0; i < 100; i++ {
		if s1.Geometric64(0.01) != s2.Geometric64(0.01) {
			t.Fatal("Geometric64 diverged across identical streams")
		}
	}

	// Mean: E[G] = 1/p, and the support starts at 1.
	const p, trials = 0.02, 40000
	s := NewStream(23, 5, 6)
	var sum int64
	for i := 0; i < trials; i++ {
		g := s.Geometric64(p)
		if g < 1 {
			t.Fatalf("Geometric64 returned %d < 1", g)
		}
		sum += g
	}
	if got := float64(sum) / trials; math.Abs(got-1/p) > 2 {
		t.Errorf("Geometric64(%g) empirical mean %.2f, want ~%.0f", p, got, 1/p)
	}
}

// geometricRef is Geometric64 as it was written before ln(1−p) was
// hoisted into LogQ: the reference every hoisted draw must reproduce.
func geometricRef(s *Stream, p float64) int64 {
	if p >= 1 {
		s.Uint64()
		return 1
	}
	g := int64(math.Ceil(math.Log(1-s.Float64()) / math.Log1p(-p)))
	if g < 1 {
		return 1
	}
	return g
}

// TestGeometricLogQMatchesGeometric64 runs twin streams draw for draw: the
// hoisted form, the wrapper and the reference return the same values and
// consume the same number of draws.
func TestGeometricLogQMatchesGeometric64(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 1.6e-5, 0.01, 0.3, 0.999999, 1} {
		hoisted, wrapped, ref := NewStream(31, 7, 2), NewStream(31, 7, 2), NewStream(31, 7, 2)
		logQ := LogQ(p)
		for i := 0; i < 100_000; i++ {
			h, w, r := hoisted.GeometricLogQ(logQ), wrapped.Geometric64(p), geometricRef(&ref, p)
			if h != r || w != r {
				t.Fatalf("p=%g draw %d: GeometricLogQ %d, Geometric64 %d, reference %d", p, i, h, w, r)
			}
		}
		if hoisted != ref || wrapped != ref {
			t.Fatalf("p=%g: streams ended in different states", p)
		}
	}
}

func TestBernoulliThreshold(t *testing.T) {
	if BernoulliThreshold(0) != 0 {
		t.Error("threshold(0) != 0")
	}
	if BernoulliThreshold(1) != ^uint64(0) {
		t.Error("threshold(1) != max")
	}
	th := BernoulliThreshold(0.25)
	s := NewStream(17, 4, 9)
	hits := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if s.Uint64() < th {
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-0.25) > 0.02 {
		t.Errorf("threshold(0.25) empirical %.3f", got)
	}
}

func TestReduceNMatchesIntN(t *testing.T) {
	a := NewStream(19, 1, 1)
	b := NewStream(19, 1, 1)
	for i := 0; i < 100; i++ {
		if got, want := ReduceN(a.Uint64(), 14), b.IntN(14); got != want {
			t.Fatalf("ReduceN disagrees with IntN at draw %d: %d vs %d", i, got, want)
		}
	}
}

func TestAliasSampleStreamMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(23, 0, 0)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[a.SampleStream(&s)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.015 {
			t.Errorf("P[%d] = %.4f, want %.4f", i, got, want)
		}
	}
}

// TestDeriveGolden pins Derive to the seed implementation: parallel-trial
// seed derivation is part of the reproducibility contract, and these values
// must never change (recorded results and tests depend on them).
func TestDeriveGolden(t *testing.T) {
	cases := []struct {
		seed uint64
		i    int
		want uint64
	}{
		{0, 0, 0x2f9219f52030ddc9},
		{0, 1, 0xcd6ec9096781362b},
		{0, 7, 0x90396c0fd5c9c587},
		{0, 1000, 0x3f6f81d4fca988f4},
		{1, 0, 0x99e5a785bde9c4a3},
		{1, 1, 0x69384a533652c33d},
		{1, 7, 0x3221fa4713f870ad},
		{1, 1000, 0x5832231f0846c104},
		{42, 0, 0x5823270947650485},
		{42, 1, 0xa86df1a6b990a81b},
		{42, 7, 0x56a6b1b00c9d1ff9},
		{42, 1000, 0x86f69ed171876a8c},
		{3735928559, 0, 0xd851755588c804c0},
		{3735928559, 1, 0x766d23eefa45b40d},
		{3735928559, 7, 0x8f1a1ee438ccb6d7},
		{3735928559, 1000, 0xfa64294b822fb477},
	}
	for _, c := range cases {
		if got := Derive(c.seed, c.i); got != c.want {
			t.Errorf("Derive(%d, %d) = %#x, want %#x", c.seed, c.i, got, c.want)
		}
	}
}

// TestTrialSeedMatchesRunManyDerivation: the trial lane must be exactly
// the per-trial derivation the serial trial pool uses, so batched engines
// keyed (TrialSeed(seed, t), unit, round) replay serial trials bit for
// bit.
func TestTrialSeedMatchesRunManyDerivation(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for trial := 0; trial < 64; trial++ {
			if TrialSeed(seed, trial) != Derive(seed, trial) {
				t.Fatalf("TrialSeed(%d,%d) != Derive", seed, trial)
			}
		}
	}
}

// TestTrialLaneSeparation: streams keyed through the trial lane —
// NewStream(TrialSeed(seed, t), unit, round) — must yield distinct draw
// sequences for distinct trials at the same (unit, round).
func TestTrialLaneSeparation(t *testing.T) {
	seen := make(map[uint64]int)
	for trial := 0; trial < 256; trial++ {
		s := NewStream(TrialSeed(9, trial), 5, 7)
		u := s.Uint64()
		if prev, dup := seen[u]; dup {
			t.Fatalf("trial-lane collision: trials %d and %d share a first draw", prev, trial)
		}
		seen[u] = trial
	}
}

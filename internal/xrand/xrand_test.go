package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d for identical seeds", i)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct seeds agree on %d/64 outputs; generator looks broken", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical SplitMix64 with seed 0 and 1:
	// the function here is next(state) applied once to the given state.
	cases := []struct {
		in, want uint64
	}{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
	}
	for _, c := range cases {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestDeriveDispersion(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 8; seed++ {
		for i := 0; i < 64; i++ {
			s := Derive(seed, i)
			if seen[s] {
				t.Fatalf("Derive collision at seed=%d i=%d", seed, i)
			}
			seen[s] = true
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(7)
	for i := 0; i < 10; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(11)
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) empirical mean %.3f", got)
	}
}

func TestGeometricMean(t *testing.T) {
	s := NewStream(13, 0, 0)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const trials = 20000
		var sum int64
		for i := 0; i < trials; i++ {
			sum += s.Geometric64(p)
		}
		got := float64(sum) / trials
		want := 1 / p
		if math.Abs(got-want) > 0.08*want+0.05 {
			t.Errorf("Geometric64(%g) mean %.3f, want %.3f", p, got, want)
		}
	}
}

func TestGeometricAlwaysPositive(t *testing.T) {
	s := NewStream(17, 0, 0)
	for i := 0; i < 1000; i++ {
		if g := s.Geometric64(0.99); g < 1 {
			t.Fatalf("Geometric64 returned %d < 1", g)
		}
	}
	if s.Geometric64(1) != 1 {
		t.Fatal("Geometric64(1) != 1")
	}
}

func TestGeometricInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric64(0) did not panic")
		}
	}()
	s := NewStream(1, 0, 0)
	s.Geometric64(0)
}

// TestGeometricSaturates pins the out-of-range arm: at p far below 2⁻⁶³
// every skip is past int64 range and must come back as MaxInt64, the
// "beyond any walk" value, never as a wrapped (negative, then clamped to 1)
// skip.
func TestGeometricSaturates(t *testing.T) {
	for _, p := range []float64{1e-300, 5e-324} {
		s := NewStream(19, 0, 0)
		for i := 0; i < 10000; i++ {
			if g := s.Geometric64(p); g != math.MaxInt64 {
				t.Fatalf("Geometric64(%g) draw %d = %d, want MaxInt64", p, i, g)
			}
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(19)
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10,0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10,1) = %d", got)
	}
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0,0.5) = %d", got)
	}
}

func TestBinomialMeanVariance(t *testing.T) {
	r := New(23)
	const n, p, trials = 40, 0.25, 5000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := float64(r.Binomial(n, p))
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-n*p) > 0.3 {
		t.Errorf("Binomial mean %.3f, want %.1f", mean, float64(n)*p)
	}
	wantVar := n * p * (1 - p)
	if math.Abs(variance-wantVar) > 0.15*wantVar {
		t.Errorf("Binomial variance %.3f, want %.3f", variance, wantVar)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	out := make([]int32, 100)
	r.Perm(out)
	seen := make([]bool, 100)
	for _, v := range out {
		if v < 0 || int(v) >= 100 || seen[v] {
			t.Fatalf("Perm output invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(31)
	counts := make([]int, 4)
	out := make([]int32, 4)
	const trials = 8000
	for i := 0; i < trials; i++ {
		r.Perm(out)
		counts[out[0]]++
	}
	for v, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.03 {
			t.Errorf("P[first=%d] = %.3f, want 0.25", v, got)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("NewAlias(nil) succeeded")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("NewAlias(all-zero) succeeded")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("NewAlias(negative) succeeded")
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 4 {
		t.Fatalf("N() = %d", a.N())
	}
	r := New(37)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.015 {
			t.Errorf("P[%d] = %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(41)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias sampled nonzero index")
		}
	}
}

// TestQuickAliasValidDistribution property-checks that alias tables built
// from random weights always sample valid indices and never lose an outcome
// that has positive weight.
func TestQuickAliasValidDistribution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := New(seed)
		n := 1 + rng.IntN(20)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(rng.IntN(5)) // some zeros allowed
		}
		weights[rng.IntN(n)] += 1 // ensure positive total
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		counts := make([]int, n)
		for i := 0; i < 2000; i++ {
			s := a.Sample(rng)
			if s < 0 || int(s) >= n {
				return false
			}
			counts[s]++
		}
		for i, w := range weights {
			if w == 0 && counts[i] > 0 && n > 1 {
				// A zero-weight outcome must (almost) never be sampled. The
				// alias construction is exact, so never.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

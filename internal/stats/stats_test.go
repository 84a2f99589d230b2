package stats

import (
	"math"
	"testing"
	"testing/quick"

	"rumor/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %g", s.Mean)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %g", s.Median)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %g/%g", s.Min, s.Max)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %g", s.Std)
	}
}

// TestCritT95 pins the critical values against the standard t-table:
// t_{0.975, df} for small df, converging to the normal 1.96 for large N.
func TestCritT95(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{2, 12.706}, // df 1
		{3, 4.303},  // df 2 — the ScaleSmall trial count
		{4, 3.182},
		{5, 2.776},
		{10, 2.262}, // df 9
		{21, 2.086}, // df 20
		{30, 2.045}, // df 29
		{31, 2.042}, // df 30, last tabulated
		{32, 1.96},  // beyond the table: normal approximation
		{1000, 1.96},
	}
	for _, c := range cases {
		if got := CritT95(c.n); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("CritT95(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := CritT95(1); got != 0 {
		t.Errorf("CritT95(1) = %g, want 0 (no interval for a single sample)", got)
	}
}

// TestSummarizeCI95StudentT: small samples must use the Student-t
// half-width. With 3 trials the normal 1.96 would understate the interval
// by a factor of 2.2.
func TestSummarizeCI95StudentT(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	// std = 2, so CI95 = t_{0.975,2} * 2 / sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if !almostEqual(s.CI95, want, 1e-9) {
		t.Errorf("CI95 = %g, want %g (Student-t, df=2)", s.CI95, want)
	}
	// A large sample falls back to the normal approximation.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	sb := Summarize(big)
	wantBig := 1.96 * sb.Std / math.Sqrt(100)
	if !almostEqual(sb.CI95, wantBig, 1e-9) {
		t.Errorf("large-sample CI95 = %g, want %g (normal)", sb.CI95, wantBig)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.CI95 != 0 {
		t.Errorf("single-sample summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, r2 := LinearFit(x, y)
	if !almostEqual(a, 3, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("fit = (%g, %g, %g), want (3, 2, 1)", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	a, b, r2 := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if b != 0 || r2 != 0 || !almostEqual(a, 2, 1e-9) {
		t.Errorf("degenerate fit = (%g, %g, %g)", a, b, r2)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 4 n^1.5
	x := []float64{2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 4 * math.Pow(x[i], 1.5)
	}
	b, r2 := LogLogSlope(x, y)
	if !almostEqual(b, 1.5, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("LogLogSlope = (%g, %g), want (1.5, 1)", b, r2)
	}
}

func TestFitShapeRecoversKnownShapes(t *testing.T) {
	ns := []float64{512, 1024, 2048, 4096, 8192, 16384}
	gen := func(f func(n float64) float64, c float64) []float64 {
		out := make([]float64, len(ns))
		for i, n := range ns {
			out[i] = c * f(n)
		}
		return out
	}
	cases := []struct {
		want string
		f    func(n float64) float64
	}{
		{"log n", math.Log},
		{"n", func(n float64) float64 { return n }},
		{"n log n", func(n float64) float64 { return n * math.Log(n) }},
		{"n^2/3", func(n float64) float64 { return math.Pow(n, 2.0/3) }},
		{"sqrt n", math.Sqrt},
		{"n^2", func(n float64) float64 { return n * n }},
	}
	for _, c := range cases {
		ts := gen(c.f, 3.7)
		if got := BestShape(ns, ts); got != c.want {
			t.Errorf("BestShape for %s data = %s", c.want, got)
		}
	}
}

func TestFitShapeNoisy(t *testing.T) {
	// 15% multiplicative noise must not flip log n into a polynomial.
	rng := xrand.New(2024)
	ns := []float64{512, 1024, 2048, 4096, 8192, 16384, 32768}
	ts := make([]float64, len(ns))
	for i, n := range ns {
		noise := 1 + 0.15*(2*rng.Float64()-1)
		ts[i] = 5 * math.Log(n) * noise
	}
	if got := BestShape(ns, ts); got != "log n" {
		t.Errorf("noisy log n classified as %s", got)
	}
}

func TestFitShapeConstantRecovered(t *testing.T) {
	ns := []float64{100, 200, 400}
	ts := []float64{42, 42, 42}
	fits := FitShape(ns, ts)
	if fits[0].Shape != "1" {
		t.Fatalf("constant data classified as %s", fits[0].Shape)
	}
	if !almostEqual(fits[0].Constant, 42, 1e-9) {
		t.Errorf("constant = %g, want 42", fits[0].Constant)
	}
}

func TestRatioBand(t *testing.T) {
	lo, hi, err := RatioBand([]float64{2, 6, 4}, []float64{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lo != 2 || hi != 3 {
		t.Errorf("RatioBand = (%g, %g), want (2, 3)", lo, hi)
	}
	if _, _, err := RatioBand([]float64{1}, []float64{0}); err == nil {
		t.Error("division by zero not reported")
	}
	if _, _, err := RatioBand([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not reported")
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	rng := xrand.New(55)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if !almostEqual(w.Mean(), s.Mean, 1e-9) {
		t.Errorf("Welford mean %g vs %g", w.Mean(), s.Mean)
	}
	if !almostEqual(w.Std(), s.Std, 1e-9) {
		t.Errorf("Welford std %g vs %g", w.Std(), s.Std)
	}
	if w.N() != s.N {
		t.Errorf("Welford n %d vs %d", w.N(), s.N)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero-value Welford not usable")
	}
}

// TestQuickQuantileBounds: quantiles never leave [min, max] and are monotone
// in q.
func TestQuickQuantileBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := Summarize(xs)
		prev := math.Inf(-1)
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			v := Quantile(sorted, q)
			if v < s.Min-1e-9 || v > s.Max+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestFitShapeAffineRecoversOffsetData(t *testing.T) {
	// T(n) = 25 + 9·ln n: a pure c·f(n) fit drifts toward small powers of
	// n, but the affine fit must identify log n exactly.
	ns := []float64{128, 256, 512, 1024, 2048}
	ts := make([]float64, len(ns))
	for i, n := range ns {
		ts[i] = 25 + 9*math.Log(n)
	}
	fits := FitShapeAffine(ns, ts)
	if len(fits) == 0 {
		t.Fatal("no affine fits")
	}
	best := fits[0]
	if best.Shape != "log n" {
		t.Fatalf("affine best = %s, want log n", best.Shape)
	}
	if !almostEqual(best.Constant, 9, 1e-6) || !almostEqual(best.Intercept, 25, 1e-5) {
		t.Errorf("affine fit = %.3f + %.3f·f, want 25 + 9·f", best.Intercept, best.Constant)
	}
	if !best.Affine {
		t.Error("Affine flag not set")
	}
}

func TestFitShapeAffineSkipsDecreasingShapes(t *testing.T) {
	// Strictly decreasing data has no growth shape with positive slope.
	ns := []float64{100, 200, 400, 800}
	ts := []float64{100, 50, 25, 12.5}
	for _, f := range FitShapeAffine(ns, ts) {
		if f.Constant < 0 {
			t.Errorf("negative-slope fit %s leaked through", f.Shape)
		}
	}
}

func TestFitShapeAffineTooFewPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with 2 points")
		}
	}()
	FitShapeAffine([]float64{1, 2}, []float64{1, 2})
}

func TestFitShapeAffineAffineLinear(t *testing.T) {
	// T(n) = 100 + 0.5·n.
	ns := []float64{256, 512, 1024, 2048}
	ts := make([]float64, len(ns))
	for i, n := range ns {
		ts[i] = 100 + 0.5*n
	}
	best := FitShapeAffine(ns, ts)[0]
	if best.Shape != "n" {
		t.Fatalf("affine best = %s, want n", best.Shape)
	}
}

func TestRunningMatchesSummarize(t *testing.T) {
	xs := []float64{9, 2, 7, 4, 4, 11, 3.5, 8, 1, 6}
	var r Running
	for i, x := range xs {
		r.Add(x)
		if r.N() != i+1 {
			t.Fatalf("N = %d after %d adds", r.N(), i+1)
		}
		got := r.Summary()
		want := Summarize(xs[:i+1])
		if got != want {
			t.Fatalf("after %d adds: Running.Summary() = %+v, want %+v", i+1, got, want)
		}
	}
}

// TestChiSquare checks the p-value against χ² table values (upper 5 % and
// 1 % points), the df = 2 closed form exp(−x/2), and the degenerate ends.
func TestChiSquare(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05}, {6.635, 1, 0.01}, {5.991, 2, 0.05}, {7.815, 3, 0.05},
		{18.307, 10, 0.05}, {23.209, 10, 0.01}, {31.410, 20, 0.05},
		{124.342, 100, 0.05}, {0.00393, 1, 0.95}, {3.940, 10, 0.95},
	} {
		if got := upperGammaQ(float64(tc.df)/2, tc.x/2); !almostEqual(got, tc.want, 2e-4) {
			t.Errorf("Q(χ²=%v, df %d) = %.5f, want %.3f", tc.x, tc.df, got, tc.want)
		}
	}
	for _, x := range []float64{0.1, 1, 4, 30, 200} {
		if got, want := upperGammaQ(1, x/2), math.Exp(-x/2); !almostEqual(got, want, 1e-12*math.Max(want, 1e-300)+1e-300) {
			t.Errorf("Q(χ²=%v, df 2) = %g, want exp(−x/2) = %g", x, got, want)
		}
	}

	// Observed [30 14 34 45 57 20] against [20 20 30 40 60 30]: Σ (o−e)²/e
	// = 5 + 1.8 + 0.5333 + 0.625 + 0.15 + 3.3333 = 11.4417 on 5 df.
	stat, df, p := ChiSquare([]float64{30, 14, 34, 45, 57, 20}, []float64{20, 20, 30, 40, 60, 30})
	if !almostEqual(stat, 11.441667, 1e-5) || df != 5 || !almostEqual(p, 0.04334, 1e-4) {
		t.Errorf("ChiSquare = (%v, %d, %v), want (11.4417, 5, 0.0433)", stat, df, p)
	}
	if stat, _, p := ChiSquare([]float64{5, 5}, []float64{5, 5}); stat != 0 || p != 1 {
		t.Errorf("perfect fit: stat %v p %v, want 0 and 1", stat, p)
	}
	if stat, _, p := ChiSquare([]float64{9, 1}, []float64{10, 0}); !math.IsInf(stat, 1) || p != 0 {
		t.Errorf("count in an impossible bin: stat %v p %v, want +Inf and 0", stat, p)
	}
	defer func() {
		if recover() == nil {
			t.Error("ChiSquare of one bin did not panic")
		}
	}()
	ChiSquare([]float64{1}, []float64{1})
}

// Package stats provides the statistical machinery the experiment harness
// uses to turn raw broadcast-time samples into the paper's claims: summary
// statistics with confidence intervals, least-squares fits, and growth-shape
// identification (is T(n) growing like log n, n^{2/3}, n, n·log n, ...?).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P10    float64
	P90    float64
	// CI95 is the half-width of the 95% confidence interval on the mean:
	// Student-t based for small samples (the experiment harness runs as few
	// as 3 trials at ScaleSmall, where the normal 1.96 understates the
	// interval by a factor of 2.2), normal-approximation beyond df 30.
	CI95 float64
}

// tCrit95 holds the two-sided 95% Student-t critical values t_{0.975, df}
// for df = 1..30; beyond that the normal 1.96 is within half a percent.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CritT95 returns the two-sided 95% critical value for the mean of an
// n-sample: the Student-t value for n-1 degrees of freedom when n-1 <= 30,
// the normal 1.96 otherwise. It returns 0 for n < 2, where no interval is
// defined.
func CritT95(n int) float64 {
	df := n - 1
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		return 1.96
	}
}

// Summarize computes descriptive statistics. It panics on an empty sample;
// callers control trial counts.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	ss := 0.0
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		P10:    Quantile(sorted, 0.1),
		P90:    Quantile(sorted, 0.9),
		CI95:   CritT95(len(sorted)) * std / math.Sqrt(float64(len(sorted))),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns the
// intercept a, slope b, and coefficient of determination R².
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs two equal-length samples of size >= 2")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		// Degenerate: all x equal. Slope undefined; report flat fit.
		return sy / n, 0, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1
	}
	ssRes := 0.0
	for i := range x {
		e := y[i] - (a + b*x[i])
		ssRes += e * e
	}
	r2 = 1 - ssRes/ssTot
	return a, b, r2
}

// LogLogSlope fits log(y) ≈ a + b·log(x) and returns the exponent b with
// its R². All inputs must be positive.
func LogLogSlope(x, y []float64) (b, r2 float64) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: LogLogSlope needs positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	_, b, r2 = LinearFit(lx, ly)
	return b, r2
}

// Shape is a candidate asymptotic growth shape f(n).
type Shape struct {
	Name string
	F    func(n float64) float64
}

// CandidateShapes is the shape dictionary used to classify measured
// broadcast-time growth. It covers every rate the paper proves:
// Θ(1), Θ(log n), Θ(n^{1/3}), Θ(√n), Θ(n^{2/3}), Θ(n^{2/3}·log n), Θ(n),
// Θ(n·log n), Θ(n²).
func CandidateShapes() []Shape {
	return []Shape{
		{Name: "1", F: func(n float64) float64 { return 1 }},
		{Name: "log n", F: func(n float64) float64 { return math.Log(n) }},
		{Name: "n^1/3", F: func(n float64) float64 { return math.Cbrt(n) }},
		{Name: "sqrt n", F: func(n float64) float64 { return math.Sqrt(n) }},
		{Name: "n^2/3", F: func(n float64) float64 { return math.Pow(n, 2.0/3) }},
		{Name: "n^2/3 log n", F: func(n float64) float64 { return math.Pow(n, 2.0/3) * math.Log(n) }},
		{Name: "n", F: func(n float64) float64 { return n }},
		{Name: "n log n", F: func(n float64) float64 { return n * math.Log(n) }},
		{Name: "n^2", F: func(n float64) float64 { return n * n }},
	}
}

// ShapeFit is the result of fitting one candidate shape.
type ShapeFit struct {
	Shape     string
	Constant  float64 // least-squares c (the slope c1 for affine fits)
	Intercept float64 // c0 for affine fits; 0 for pure fits
	RelErr    float64 // root-mean-square relative residual
	Affine    bool
}

// FitShape finds the candidate f with the smallest RMS relative residual
// for T(n) ≈ c·f(n) over the sweep (ns, ts), and returns all fits sorted
// best-first. Relative residuals make sizes comparable across the sweep:
// a fit that is 10% off at every n beats one that nails small n and misses
// large n by 2x.
func FitShape(ns, ts []float64) []ShapeFit {
	if len(ns) != len(ts) || len(ns) < 2 {
		panic("stats: FitShape needs two equal-length samples of size >= 2")
	}
	shapes := CandidateShapes()
	fits := make([]ShapeFit, 0, len(shapes))
	for _, s := range shapes {
		// Least squares on relative scale: minimize sum ((c f - t)/t)^2
		// => c = sum(f/t) / sum(f^2/t^2).
		num, den := 0.0, 0.0
		ok := true
		for i := range ns {
			f := s.F(ns[i])
			if ts[i] <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				ok = false
				break
			}
			num += f / ts[i]
			den += f * f / (ts[i] * ts[i])
		}
		if !ok || den == 0 {
			continue
		}
		c := num / den
		ss := 0.0
		for i := range ns {
			rel := (c*s.F(ns[i]) - ts[i]) / ts[i]
			ss += rel * rel
		}
		fits = append(fits, ShapeFit{
			Shape:    s.Name,
			Constant: c,
			RelErr:   math.Sqrt(ss / float64(len(ns))),
		})
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].RelErr < fits[j].RelErr })
	return fits
}

// BestShape returns the name of the best-fitting candidate shape.
func BestShape(ns, ts []float64) string {
	return FitShape(ns, ts)[0].Shape
}

// FitShapeAffine fits T(n) ≈ c0 + c1·f(n) for every non-constant candidate
// shape, using relative (1/t²-weighted) least squares, and returns the fits
// sorted best-first. The intercept absorbs lower-order terms that dominate
// at small n — measured broadcast times are typically a + b·f(n), and a
// pure c·f(n) fit misclassifies such data. Shapes whose best fit has a
// negative slope are dropped: broadcast times grow.
func FitShapeAffine(ns, ts []float64) []ShapeFit {
	if len(ns) != len(ts) || len(ns) < 3 {
		panic("stats: FitShapeAffine needs two equal-length samples of size >= 3")
	}
	shapes := CandidateShapes()
	fits := make([]ShapeFit, 0, len(shapes))
	for _, s := range shapes {
		if s.Name == "1" {
			continue // collinear with the intercept
		}
		var s00, s01, s11, b0, b1 float64
		ok := true
		for i := range ns {
			f := s.F(ns[i])
			if ts[i] <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				ok = false
				break
			}
			w := 1 / (ts[i] * ts[i])
			s00 += w
			s01 += w * f
			s11 += w * f * f
			b0 += w * ts[i]
			b1 += w * f * ts[i]
		}
		det := s00*s11 - s01*s01
		if !ok || math.Abs(det) < 1e-12*s00*s11 {
			continue
		}
		c0 := (s11*b0 - s01*b1) / det
		c1 := (s00*b1 - s01*b0) / det
		if c1 < 0 {
			continue
		}
		ss := 0.0
		for i := range ns {
			rel := (c0 + c1*s.F(ns[i]) - ts[i]) / ts[i]
			ss += rel * rel
		}
		fits = append(fits, ShapeFit{
			Shape:     s.Name,
			Constant:  c1,
			Intercept: c0,
			RelErr:    math.Sqrt(ss / float64(len(ns))),
			Affine:    true,
		})
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].RelErr < fits[j].RelErr })
	return fits
}

// RatioBand returns min and max of ts[i]/us[i]; the Theorem 1 experiments
// use it to check that two protocols stay within a constant factor.
func RatioBand(ts, us []float64) (lo, hi float64, err error) {
	if len(ts) != len(us) || len(ts) == 0 {
		return 0, 0, fmt.Errorf("stats: RatioBand needs equal non-empty slices")
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range ts {
		if us[i] == 0 {
			return 0, 0, fmt.Errorf("stats: RatioBand division by zero at %d", i)
		}
		r := ts[i] / us[i]
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi, nil
}

// ChiSquare is Pearson's goodness-of-fit test of observed bin counts
// against expected ones: stat = Σ (o−e)²/e, df = bins − 1, and p is the
// chance that a χ²(df) variable is at least stat, the regularized upper
// incomplete gamma Q(df/2, stat/2). Pool bins so that every expected
// count is at least about 5 before calling it. A bin that expects nothing
// but observes something makes stat +Inf and p 0. It panics unless both
// slices have the same length of at least 2.
func ChiSquare(observed, expected []float64) (stat float64, df int, p float64) {
	if len(observed) != len(expected) || len(observed) < 2 {
		panic("stats: ChiSquare needs two equal-length samples of size >= 2")
	}
	for i, o := range observed {
		e := expected[i]
		switch {
		case e > 0:
			stat += (o - e) * (o - e) / e
		case o != 0:
			stat = math.Inf(1)
		}
	}
	df = len(observed) - 1
	return stat, df, upperGammaQ(float64(df)/2, stat/2)
}

// upperGammaQ is the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) for a > 0: by the series for P = 1 − Q below
// x = a + 1, where it converges fast, and by Lentz's continued fraction
// for Q above it (Numerical Recipes §6.2).
func upperGammaQ(a, x float64) float64 {
	switch {
	case x <= 0:
		return 1
	case math.IsInf(x, 1):
		return 0
	}
	const eps, tiny, maxIter = 1e-15, 1e-300, 100000
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(x) - x - lg)
	if x < a+1 {
		ap, del := a, 1/a
		sum := del
		for range maxIter {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*eps {
				break
			}
		}
		return max(0, 1-sum*front)
	}
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return front * h
}

// Running accumulates a sample incrementally and produces the exact
// Summary that Summarize would compute over the values added so far. The
// serving layer feeds it one broadcast time per emitted trial, so a
// partially streamed job can report its running distribution at any
// point. Quantiles require the retained sample, so memory is O(n) — fine
// at trial counts, by design not a reservoir sketch.
type Running struct {
	xs []float64
}

// Add incorporates x.
func (r *Running) Add(x float64) { r.xs = append(r.xs, x) }

// N returns the number of samples added.
func (r *Running) N() int { return len(r.xs) }

// Summary summarizes the samples added so far. Like Summarize it panics on
// an empty accumulator; callers gate on N.
func (r *Running) Summary() Summary { return Summarize(r.xs) }

// Welford is a streaming mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }
